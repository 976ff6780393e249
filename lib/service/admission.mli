(** Admission control for the solve queue: a bounded FIFO with
    pluggable shed policies.

    Admission bounds the {e backlog}. A request can be shed at three
    points: at the door when the queue is full (which entry loses is
    the {!policy}'s call), eagerly at enqueue time when its deadline
    lapsed while it queued (an expired entry must not hold a slot a
    live request is being bounced for), and at dispatch when {!take}
    finds its deadline passed. Time is supplied by the caller
    ([~now], matched against absolute [~expires_at] stamps), so every
    policy is deterministic under test.

    The accounting invariant callers rely on: every job ever offered
    is eventually exactly one of {e served} (returned by {!take} as a
    live job), {e shed} (rejected at the door, returned in an
    [evicted] list, or returned as [`Shed]), or {e still queued}. Shed never loses an accepted job silently —
    eviction hands the job back so the caller can answer it. *)

(** What happens to a full queue when a new request arrives:
    [Reject_new] sheds the arrival (admitted requests are never
    evicted), [Drop_oldest] evicts the head of the queue and admits
    the arrival, [Tenant_fair] evicts the {e newest} entry of the
    tenant holding the most slots — and only when that tenant holds at
    least two, so a tenant's only queued request is never shed in
    favour of another; with no such hog it degrades to
    [Reject_new]. *)
type policy =
  | Reject_new
  | Drop_oldest
  | Tenant_fair

val policy_to_string : policy -> string

type 'a t

(** [create ~capacity ()] — [?policy] defaults to [Reject_new], the
    historical behaviour. @raise Invalid_argument when
    [capacity <= 0]. *)
val create : ?policy:policy -> capacity:int -> unit -> 'a t

val capacity : 'a t -> int

val policy : 'a t -> policy

(** Jobs currently queued. *)
val length : 'a t -> int

(** Total jobs shed since {!create} — door rejections, evictions,
    eager expiries and dispatch-time sheds all count. *)
val shed_count : 'a t -> int

type 'a offer_outcome = {
  admitted : bool;  (** whether the offered job holds a slot now *)
  evicted : 'a list;
      (** previously admitted jobs shed to make room — expired entries
          swept at enqueue, plus the policy's victim — oldest first.
          Each was accepted earlier and still owes its client a reply
          (typically [Overloaded]). *)
}

(** [offer t ~now job] sweeps expired entries, then enqueues [job] or
    applies the policy when the queue is still full. [expires_at] is
    an absolute timestamp on the caller's clock; omitted, the job
    never expires in queue. [tenant] (default ["default"]) feeds the
    [Tenant_fair] bookkeeping. *)
val offer :
  'a t -> ?expires_at:float -> ?tenant:string -> now:float -> 'a ->
  'a offer_outcome

(** [take t ~now] dequeues the oldest job: [`Job j] when it is still
    worth running, [`Shed j] when its [expires_at] passed while it
    queued (counted in {!shed_count}; callers typically answer it
    [Overloaded] and call [take] again), [`Empty] when nothing is
    queued. *)
val take : 'a t -> now:float -> [ `Job of 'a | `Shed of 'a | `Empty ]

(** [remove_matching t ~f] removes and returns every queued job
    satisfying [f], in queue order, leaving the others in place. The
    removed jobs are {e not} counted as shed — the caller is taking
    responsibility for answering them (a single-flight leader
    adopting queued duplicates as it starts). *)
val remove_matching : 'a t -> f:('a -> bool) -> 'a list
