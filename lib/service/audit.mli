(** The solve audit journal — one record per completed request.

    Every solve the daemon finishes (served from any rung of the reuse
    ladder, or failed) appends a {!record} carrying the request's
    trace id, the problem fingerprint, how it was served, what it
    cost, how long it queued and solved, the solver-effort telemetry
    deltas, and a folded {!convergence_summary} of the solve's
    {!Telemetry.Progress} timeline.

    Records land in a bounded in-memory ring (answering the protocol's
    [audit] op and {!recent}) and, when {!open_file} has been called,
    are also appended as JSONL — one {!record_to_json} line per
    record, flushed per line so a killed daemon still leaves a
    readable journal.

    The journal obeys the global telemetry kill switch: when
    {!Telemetry.enabled} is [false], {!record} is a no-op — no ring
    writes, no file writes — so disabling telemetry freezes auditing
    too. *)

(** What remains of a {!Telemetry.Progress} timeline in the journal:
    how fast a first feasible point appeared, where the incumbent and
    dual bound ended, and the final relative gap
    [|inc - bound| / max 1 |inc|]. *)
type convergence_summary = {
  events : int;  (** timeline length *)
  first_incumbent : float option;
  last_incumbent : float option;
  time_to_first : float option;
      (** elapsed seconds to the first incumbent (time-to-first-feasible) *)
  final_bound : float option;  (** last dual bound (MILP engines only) *)
  final_gap : float option;
      (** relative gap between final incumbent and final bound; [None]
          unless both exist *)
}

type record = {
  seq : int;  (** journal sequence number, assigned by {!record} *)
  at : float;  (** completion time, [Unix.gettimeofday] *)
  trace_id : string;
  id : int option;  (** the client's request id *)
  tenant : string;
  fingerprint : string;  (** problem fingerprint digest *)
  objective : string;  (** ["min-cost"] or ["max-throughput"] *)
  scalar : int;  (** the objective's target / monetary budget *)
  served : string;  (** reuse rung, {!Protocol.served_to_string} form *)
  engine : string;
  status : string;
  cost : int;
  throughput : int;
  queue_wait : float;  (** seconds spent queued before the solve *)
  wall : float;  (** end-to-end seconds, queue wait excluded *)
  evaluations : int;
  pivots : int;
  nodes : int;
  convergence : convergence_summary option;
      (** [None] when the timeline was empty (cache hits, telemetry
          disabled) *)
}

type t

(** [create ()] is an empty journal holding the last [capacity]
    (default 256) records in memory.
    @raise Invalid_argument when [capacity < 1]. *)
val create : ?capacity:int -> unit -> t

val capacity : t -> int

(** Total records ever accepted (the ring holds the last
    [min recorded capacity] of them). *)
val recorded : t -> int

(** [record t r] appends [r] with the next sequence number — to the
    ring, and to the JSONL file when one is open. No-op while
    telemetry is disabled. Thread-safe. *)
val record : t -> record -> unit

(** [recent ?last t] is the last [last] records (default: all held),
    oldest first. *)
val recent : ?last:int -> t -> record list

(** [summarize events] folds a Progress timeline into its journal
    summary; [None] on an empty timeline. *)
val summarize : Telemetry.Progress.event list -> convergence_summary option

(** [open_file t path] starts appending records to [path] as JSONL
    (creating it if needed), closing any previously open file. *)
val open_file : t -> string -> unit

(** [close t] closes the JSONL file, if open. The ring keeps
    recording. *)
val close : t -> unit

val record_to_json : record -> Json.t
val record_of_json : Json.t -> (record, string) result
