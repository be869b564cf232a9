(** Pluggable event-queue backend for {!Engine}.

    Two backends with identical observable behaviour — pops come out in
    [(time, insertion)] order from both — so swapping them changes the
    cost profile, never the simulation output:

    - {b [Heap]} ({!Event_heap}): O(log n) push/pop, O(1) lazy cancel.
      The default, and the faster backend on every perfbench workload;
      {!min_time}/{!pop_min} make its per-event path allocation-free.
    - {b [Wheel]} ({!Timing_wheel}): O(1) push/cancel with a small
      constant, amortised O(1) pop. Faster only on micro schedules
      that fill a large queue at once; end to end it runs about 2×
      slower than the heap. Kept as the heap's determinism
      cross-check. *)

type kind = Heap | Wheel

val kind_name : kind -> string

val kind_of_string : string -> kind option

val env_kind : unit -> kind
(** Backend selected by the [LAUBERHORN_SCHED] environment variable
    ([heap] | [wheel]); [Heap] when unset.

    @raise Invalid_argument on an unrecognised value. *)

val env_kind_opt : unit -> kind option
(** As {!env_kind} but [None] when the variable is unset, so callers
    with their own default (e.g. [Config.scheduler]) can tell "unset"
    from an explicit [heap]. *)

type 'a t

type 'a handle = 'a Sched_entry.t
(** One handle type across backends: the entry itself. *)

val create : kind -> 'a t
val kind : 'a t -> kind
val is_empty : 'a t -> bool
val live_count : 'a t -> int
val push : 'a t -> time:Units.time -> 'a -> 'a handle
val cancel : 'a t -> 'a handle -> unit
val pop : 'a t -> (Units.time * 'a) option
val peek_time : 'a t -> Units.time option

val min_time : 'a t -> Units.time
(** Earliest live timestamp, [max_int] when empty
    ({!Event_heap.min_time}). Allocation-free on the heap. *)

val pop_min : 'a t -> 'a
(** Remove the earliest live entry and return its payload
    ({!Event_heap.pop_min}). Allocation-free on the heap.

    @raise Invalid_argument when the queue is empty. *)

val validate : 'a t -> (unit, string) result
(** Backend structural self-check ({!Event_heap.validate} or
    {!Timing_wheel.validate}). *)
