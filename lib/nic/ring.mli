(** A descriptor ring: the producer/consumer queue between a DMA NIC
    and its driver (Figure 1 of the paper).

    The hardware produces completed descriptors at [head]; the driver
    consumes from [tail] and replenishes free slots. Payloads are
    simulated frames rather than raw buffers; the DMA cost of moving
    the bytes is priced by the NIC model, not here. *)

type 'a t

val create : size:int -> 'a t
(** @raise Invalid_argument unless [size] is a positive power of two. *)

val size : 'a t -> int
val occupancy : 'a t -> int
val is_empty : 'a t -> bool

val produce : 'a t -> 'a -> bool
(** Hardware side: write a completed descriptor. Returns [false] (drop)
    when the ring is full — the overload behaviour of a real NIC. *)

val consume : 'a t -> 'a option
(** Driver side: take the oldest completed descriptor. *)

val peek : 'a t -> 'a option

val drops : 'a t -> int
(** Number of rejected [produce] calls (ring-full drops). *)

val produced : 'a t -> int
val consumed : 'a t -> int

val on_produce : 'a t -> (unit -> unit) -> unit
(** Callback after each successful [produce] — lets poll-mode consumers
    account their idle window precisely instead of simulating every
    spin iteration. *)
