(** The traditional descriptor-DMA NIC — Figure 1 of the paper.

    Receive path: MAC → RSS queue selection → IOMMU translation of the
    posted buffer → DMA of the payload into host memory → descriptor
    write-back → (moderated) MSI-X interrupt. Everything after the
    interrupt — protocol processing, demultiplexing to a socket, waking
    a thread — is software and belongs to the stack built on top
    ({!Baseline.Linux_stack}), or is polled directly from the rings by
    a kernel-bypass stack. *)

type config = {
  nqueues : int;
  ring_size : int;
  coalesce_interval : Sim.Units.duration;
      (** MSI-X moderation window; 0 disables moderation. *)
  use_iommu : bool;
  mac_pipeline : Sim.Units.duration;
  descriptor_write : Sim.Units.duration;
      (** Descriptor write-back DMA (small, latency-dominated). *)
}

val default_config : config
(** 4 queues, 512-entry rings, 20 µs moderation, IOMMU on. *)

type t

val create :
  Sim.Engine.t -> Coherence.Interconnect.profile -> ?config:config ->
  ?fault:Fault.Plan.t -> ?metrics:Obs.Metrics.t ->
  on_rx_interrupt:(queue:int -> unit) -> unit -> t
(** [on_rx_interrupt] is the driver's ISR entry (typically bridges into
    {!Osmodel.Kernel.run_irq}).

    [metrics] registers the NIC's drop tallies and receive-pool
    occupancy as derived gauges ([nic_ring_drops], [nic_fault_drops],
    [nic_corrupt_drops], [pool_outstanding]) on the given registry,
    sampled at export time.

    [fault] (default {!Fault.Plan.none}) applies the plan's [nic] link
    at the DMA completion stage: [drop] forces counted completion
    drops (pooled buffer released), [corrupt] flips a byte of the
    DMA'd bytes so the driver's in-place parse rejects the descriptor
    at {!consume}. With the default plan no RNG is consumed and
    behaviour is bit-identical to a fault-free NIC. *)

val rx_from_wire : t -> Net.Frame.t -> unit
(** Connect as the wire's deliver callback. *)

val set_steering : ?cost:int -> t -> (Net.Frame.t -> int) -> unit
(** Replace RSS with an explicit flow-director function (kernel-bypass
    stacks steer each service's port to its dedicated queue). The
    result is taken modulo the queue count.

    [cost] (default 0) is charged to every received frame's hardware
    pipeline — {!Steer_verify.install} passes the statically computed
    per-packet cost of a verified steering program here, so steering
    shows up in latency attribution. The off path ([steering] never
    set) charges nothing.

    This is the raw dispatch-table write. Outside [lib/nic] it is
    confined by the simlint [steer-seam] rule: call sites must either
    go through {!Steer_verify.install} (the verified path) or carry an
    explicit [[@steer_seam]] review annotation. *)

val rss_queue : t -> Net.Frame.t -> int
(** The queue RSS would pick for this frame (the NIC's own indirection
    table) — the meaning of a steering program's [Rss] target. *)

val nqueues : t -> int

val rx_ring : t -> queue:int -> Net.Slice.t Ring.t
(** Completed receive descriptors — each a view of the wire bytes DMAed
    into a pooled receive buffer. Prefer {!consume}, which parses in
    place and recycles the buffer; consuming the ring directly makes
    the caller responsible for returning pool-sized buffers via
    {!pool}. *)

val consume : t -> queue:int -> (Net.Frame.view -> 'a) -> 'a option
(** Take the oldest completed descriptor, parse its bytes in place, and
    apply the callback to the zero-copy view. The backing buffer is
    released back to the pool when the callback returns, so the view
    (and its payload slice) must not escape the callback — copy
    ({!Net.Frame.of_view}) anything that must outlive it. [None] when
    the ring is empty — never "bad frame": descriptors whose bytes fail
    checksum validation (DMA corruption) are counted
    ({!rx_corrupt_dropped}), their buffers released, and skipped. *)

val pool : t -> Net.Pool.t
(** The shared receive-buffer pool (for accounting/diagnostics). *)

val mask_irq : t -> queue:int -> unit
val unmask_irq : t -> queue:int -> unit
(** NAPI-style: mask while polling the ring, unmask when drained. *)

val transmit : t -> Net.Frame.t -> via:(Net.Frame.t -> unit) -> unit
(** NIC-side transmit: descriptor fetch + payload DMA read, then hand
    to the wire ([via]). The CPU-side doorbell cost is charged by the
    calling stack. *)

val rx_delivered : t -> int

val rx_dropped : t -> int
(** Ring-full tail drops. *)

val rx_corrupt_dropped : t -> int
(** Descriptors rejected (and released) by {!consume}'s validation. *)

val interrupts_fired : t -> int
val iommu : t -> Iommu.t option
