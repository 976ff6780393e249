(** Structural identity of a problem, as the service caches see it.

    Wraps {!Rentcost.Instance.canonical_encoding}: two problems get
    equal fingerprints exactly when their dominance-pruned cost
    structures are identical up to renumbering task types and
    reordering recipes — in which case any allocation of one transfers
    to the other through the canonical recipe order. The service keys
    its compiled-instance table and solution cache on this, so
    syntactically different but equivalent submissions share entries.

    A fingerprint keeps both the hex digest (compact hash key) and the
    full canonical encoding; {!equal} compares the encoding, so cache
    correctness never rests on the hash being collision-free. *)

type t

val of_instance : Rentcost.Instance.t -> t

(** Hex digest of the canonical encoding — the hash-table key. *)
val digest : t -> string

(** The full canonical encoding the digest was taken over. *)
val encoding : t -> string

(** Collision-proof equality: compares the encodings, not the
    digests. *)
val equal : t -> t -> bool

(** Leading 12 hex characters of the digest, for logs and replies. *)
val short : t -> string
