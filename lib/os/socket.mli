(** A receive socket: the queue between softirq-context protocol
    processing and a blocking application thread.

    [recv] charges one syscall and blocks the calling thread when the
    queue is empty; [enqueue] (kernel context) wakes the oldest waiter.
    Payloads are type-parametric ([Net.Frame.t] in the Linux baseline). *)

type 'a t

val create : Kernel.t -> unit -> 'a t

val enqueue : 'a t -> 'a -> unit
(** Deliver a datagram. Never blocks; unbounded (the ring ahead of it
    is the bounded element, as in real kernels the socket buffer limit
    rarely binds for small RPCs). Waiters whose process has been killed
    are skipped and discarded; the datagram remains queued until a live
    thread receives it (crash/restart keeps the backlog). *)

val recv : 'a t -> Proc.thread -> ('a -> unit) -> unit
(** Blocking receive from the calling thread's context. *)

val depth : 'a t -> int
val enqueued : 'a t -> int
