(** The OS kernel model: cores, run queues, scheduling, context
    switches, IPIs, timer ticks, and cycle accounting.

    Threads are continuation chains. A thread's body runs when the
    scheduler dispatches it on a core and drives itself with the
    execution primitives below ([run_for], [yield], [block], ...); each
    primitive charges simulated CPU time and returns control to the
    engine. Within one [run_for] segment a thread is non-preemptible
    (segments are short — handler bodies, syscall paths); preemption
    happens at segment boundaries when a timer tick has marked the core
    for reschedule. This matches the throughput-oriented, mostly
    non-preemptive kernels the paper discusses.

    Interrupt approximation: an IRQ charges kernel time on its target
    core and runs its handler after the configured latency, without
    delaying a segment already in flight on that core (brief
    double-booking instead of mid-segment preemption). IRQ steering
    prefers idle cores, so double-booking is rare; the simplification
    is documented here once and holds for all experiments. *)

type costs = {
  ctx_switch_process : Sim.Units.duration;
      (** Address-space switch (TLB/cache effects folded in). *)
  ctx_switch_thread : Sim.Units.duration;  (** Same address space. *)
  syscall : Sim.Units.duration;  (** User→kernel→user, combined. *)
  wake : Sim.Units.duration;  (** try_to_wake_up path, charged to waker. *)
  ipi_latency : Sim.Units.duration;  (** Send to handler start. *)
  ipi_handler : Sim.Units.duration;  (** Kernel time on the target. *)
  irq_latency : Sim.Units.duration;  (** Device signal to ISR start. *)
  timer_tick_period : Sim.Units.duration;
  timer_tick_cost : Sim.Units.duration;
  quantum : Sim.Units.duration;  (** Timeslice before tick preemption. *)
}

type t

val create :
  Sim.Engine.t -> ncores:int -> ?costs:costs -> ?work_stealing:bool ->
  unit -> t
(** [costs] defaults to Linux-flavoured numbers on a server CPU: 1.3 µs
    process switch, 500 ns thread switch, 300 ns syscall, 500 ns wake,
    800 ns IPI delivery, 1 ms tick, 5 ms quantum. [work_stealing]
    (default true) lets an idle core pull unpinned threads from the
    longest other queue. *)

val engine : t -> Sim.Engine.t
val ncores : t -> int
val costs : t -> costs

(** {1 Processes and threads} *)

val new_process : t -> name:string -> Proc.process

val spawn :
  t -> Proc.process -> name:string -> ?affinity:int ->
  ?kernel_thread:bool -> (unit -> unit) -> Proc.thread
(** Create a thread whose body is the given closure. The thread starts
    [Blocked]; call {!wake} to make it runnable. The body must finish by
    calling one of the primitives that relinquish the core
    ({!block}, {!exit_thread}, ...). *)

val wake : t -> Proc.thread -> unit
(** Make a blocked thread runnable and place it: pinned core if any,
    else its last core when idle, else any idle core, else the shortest
    run queue. No-op if already runnable, and a tolerated no-op on an
    exited thread (a timer or I/O completion racing with {!kill}).
    Charged [costs.wake] to the kernel of the target core. *)

val exit_thread : t -> Proc.thread -> unit

(** {1 Process lifecycle — the server-side failure domain} *)

val kill : t -> Proc.process -> unit
(** Crash the process: all its threads exit wherever they are. Running
    threads release their cores immediately (open memory stalls are
    closed and charged); Ready threads become stale run-queue entries
    that the scheduler skips; Blocked threads never wake. A segment in
    flight under {!run_for} is abandoned when its timer fires. The
    context-switch hooks fire for each vacated core — the NIC's
    scheduling mirror therefore sees the death with the same push lag
    as any other occupancy change. Fires the {!on_process_exit} hooks
    synchronously. Idempotent. *)

val respawn : t -> Proc.process -> unit
(** Mark a killed process alive again (same pid) and fire the
    {!on_process_respawn} hooks. Thread bodies are one-shot
    continuation chains, so the caller spawns fresh threads into the
    process afterwards. No-op if the process is alive. *)

val on_process_exit : t -> (Proc.process -> unit) -> unit
val on_process_respawn : t -> (Proc.process -> unit) -> unit

val kills : t -> int
(** Total {!kill}s that found a live process. *)

(** {1 Execution primitives — call only from the running thread} *)

val run_for :
  t -> Proc.thread -> kind:Cpu_account.kind -> Sim.Units.duration ->
  (unit -> unit) -> unit
(** Execute for a duration, charging the core, then continue — unless a
    reschedule is pending, in which case the thread is preempted and the
    continuation runs at its next dispatch. *)

val yield : t -> Proc.thread -> (unit -> unit) -> unit
(** Voluntarily give up the core (syscall cost applies). Continues
    immediately if nothing else is runnable. *)

val block : t -> Proc.thread -> (unit -> unit) -> unit
(** Leave the core and sleep until {!wake}; the continuation runs at the
    next dispatch after the wake. *)

val sleep : t -> Proc.thread -> Sim.Units.duration -> (unit -> unit) -> unit
(** {!block} plus a timer wake. *)

val stall_begin : t -> Proc.thread -> unit
(** Mark the thread's core as stalled on a memory load: the core stays
    occupied by this thread but accrues [Stall] (low-power) rather than
    [User] time, until {!stall_end}. *)

val stall_end : t -> Proc.thread -> unit

(** {1 Interrupts} *)

val run_irq :
  t -> ?core:int -> cost:Sim.Units.duration -> (core:int -> unit) -> unit
(** Deliver a device interrupt: pick a core (given, else prefer idle),
    charge kernel time, run the handler after [costs.irq_latency]. *)

val send_ipi : t -> core:int -> (unit -> unit) -> unit
(** Inter-processor interrupt: handler runs on the target core after
    [costs.ipi_latency], charging [costs.ipi_handler]. *)

(** {1 Introspection} *)

val current : t -> core:int -> Proc.thread option
val core_is_idle : t -> core:int -> bool
val runqueue_length : t -> core:int -> int
val total_runnable_waiting : t -> int
val account : t -> core:int -> Cpu_account.t
val accounts : t -> Cpu_account.t list

val on_context_switch :
  t -> (core:int -> prev:Proc.thread option -> next:Proc.thread option ->
        unit) -> unit
(** Register a hook observing every occupancy change of every core —
    the feed for the NIC's scheduling-state mirror (paper §4: "the
    kernel keeps the NIC updated with the current OS scheduling
    state"). Hooks run synchronously at the switch instant. *)

val on_wake_enqueue : t -> (core:int -> Proc.thread -> unit) -> unit
(** Register a hook firing when {!wake} queues a thread behind a busy
    core. Lauberhorn uses this as the kernel→NIC "please free this
    core" signal: if the core's occupant is parked on a CONTROL line,
    the NIC answers it with TRYAGAIN, which makes the occupant enter
    the kernel and yield (paper §5.1's clean descheduling point). *)
