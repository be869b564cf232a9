(** Binary min-heap of timestamped events with O(log n) insert/pop and
    O(1) cancellation.

    Ties on the timestamp are broken by insertion order, so the simulation
    is deterministic: two events scheduled for the same instant fire in
    the order they were scheduled. Cancellation is lazy — a cancelled
    entry stays in the heap until it surfaces or until cancelled entries
    become the majority, at which point the heap compacts in place.

    Entries are stored unboxed (no [option] wrapper); a push performs
    exactly one allocation, the entry itself, which doubles as the
    cancellation handle. Sifts move a hole rather than swapping, so
    each level of a push or pop costs one pointer store, and
    {!min_time}/{!pop_min} read and remove the earliest entry without
    allocating. *)

type 'a t
(** Heap carrying payloads of type ['a]. *)

type 'a handle
(** Identifies a scheduled entry; used to cancel it. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool
(** True when no live (non-cancelled) entry remains. *)

val live_count : 'a t -> int
(** Number of scheduled entries not yet popped or cancelled. *)

val push : 'a t -> time:Units.time -> 'a -> 'a handle
(** Schedule a payload at the given time; returns a cancellation handle. *)

val cancel : 'a t -> 'a handle -> unit
(** Cancel a scheduled entry. Cancelling an already-popped or
    already-cancelled entry is a no-op. *)

val min_time : 'a t -> Units.time
(** Timestamp of the earliest live entry without removing it, or
    [max_int] when no live entry remains. Allocates nothing. *)

val pop_min : 'a t -> 'a
(** Remove the earliest live entry and return its payload. Its
    timestamp is the {!min_time} read just before. Allocates nothing.

    @raise Invalid_argument when no live entry remains (callers check
    {!is_empty} first). *)

val validate : 'a t -> (unit, string) result
(** Structural self-check: heap order over the stored prefix and
    agreement between the cancelled flags and {!live_count}. O(n);
    meant for sanitizer builds and tests, not the hot path. *)
