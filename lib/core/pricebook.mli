(** Multi-cloud price books over one set of machine types — the second
    scenario axis.

    The paper prices every machine type from a single {!Platform}
    vector [c_q]. Real provisioning shops across providers and
    regions, each with its own list price per type, plus discount
    tiers (reserved, spot) quoted as a percentage of list price. A
    [Pricebook.t] is a non-empty set of named {e books}; every book
    prices {e all} the types (same index space as the platform) and
    carries an optional region label and any number of discount tiers.
    An implicit ["on-demand"] tier at 100% always applies, so a book
    without tiers is just its list-price vector.

    The {e effective} per-type cost is the cheapest (book, tier) pair:
    [min_b min_t ⌈price_b(q)·pct_t / 100⌉] (never below 1 — platform
    costs are strictly positive). {!apply} rewrites a platform with
    the effective costs, which is how {!Instance.compile} bakes a
    price book into [c_q]: every engine, the incremental
    {!Instance.Oracle} and the canonical fingerprint then price with
    multi-cloud costs for free. A single book with no tiers that
    quotes the platform's own costs degenerates to exactly today's
    platform vector, and books that all share one price vector compile
    bit-identically to the single-cloud instance. *)

(** A discount tier: rent at [percent]% of the book's list price. *)
type tier = {
  tier_name : string;
  percent : int;  (** of list price; strictly positive *)
}

type book = {
  book_name : string;
  region : string option;  (** provider region, informational *)
  prices : int array;  (** list price per machine type, length [Q] *)
  tiers : tier list;  (** on top of the implicit on-demand 100% tier *)
}

(** Where one machine type's effective price comes from. *)
type sourcing = {
  src_book : string;
  src_region : string option;
  src_tier : string;  (** ["on-demand"] or a declared tier name *)
  src_cost : int;  (** the effective cost *)
}

type t

(** [create books] validates a non-empty book list: positive prices
    and tier percents, equal price-vector lengths.
    @raise Invalid_argument otherwise. *)
val create : book list -> t

(** [sourcing t q] is the cheapest rental of one machine of type [q]
    across every book and tier, [src_cost], and its provenance: which
    book, region and tier the type is cheapest from. Ties resolve to the
    first book in declaration order, on-demand before discount tiers.
    @raise Invalid_argument on an out-of-range type. *)
val sourcing : t -> int -> sourcing

(** [apply t platform] reprices the platform with the effective costs
    (throughputs unchanged).
    @raise Invalid_argument when the type counts disagree. *)
val apply : t -> Platform.t -> Platform.t

(** {1 Text format}

    Line-oriented, [#] starts a comment, keywords case-insensitive:

    {v
    pricebook version 1        # optional; version 1 implied
    book us-east
      region us-east-1         # optional
      price 0 10               # price <type> <cost>, one per type
      price 1 18
      tier reserved 70         # tier <name> <percent-of-list>
    book eu-spot
      …
    v}

    Unknown versions are rejected with a message naming the supported
    versions, so future fields stay forward-compatible. *)

(** @raise Failure with a line-numbered message on malformed input or
    an unsupported version, and with ["missing price for type K"] for
    the smallest type [K] a book leaves unpriced.
    @raise Invalid_argument with {!create}'s message when a price or
    tier percent is not positive, or books price different numbers of
    types. *)
val of_string : string -> t

(** [of_string (to_string t)] reconstructs an equivalent pricebook. *)
val to_string : t -> string

val load : string -> t
