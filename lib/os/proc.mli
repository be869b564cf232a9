(** Processes and threads — the schedulable entities.

    A thread's behaviour is a chain of continuations driven by
    {!Kernel}: the [resume] closure is what runs next time the thread
    is dispatched onto a core. State transitions are owned by the
    kernel; this module is the passive data model. *)

type thread_state =
  | Ready  (** On a run queue. *)
  | Running of int  (** Executing (or stalled) on the given core. *)
  | Blocked  (** Waiting for a wake (socket, endpoint, sleep). *)
  | Exited

type process = {
  pid : int;
  pname : string;
  mutable thread_count : int;
  mutable alive : bool;
      (** Cleared by {!Kernel.kill}; restored by {!Kernel.respawn}. *)
  mutable members : thread list;
      (** Every thread ever spawned into the process, newest first
          (exited ones included). *)
}

and thread = {
  tid : int;
  tname : string;
  proc : process;
  mutable state : thread_state;
  mutable resume : (unit -> unit) option;
      (** Continuation to run at next dispatch; consumed by the kernel. *)
  mutable affinity : int option;  (** Pinned core, if any. *)
  mutable last_core : int option;  (** For wake placement affinity. *)
  mutable kernel_thread : bool;
      (** Kernel threads switch cheaper (no address-space change) and
          are eligible for RETIRE (paper §5.2). *)
  mutable quantum_start : Sim.Units.time;
      (** When the thread last started running (quantum accounting). *)
}

val make_process : pid:int -> name:string -> process

val make_thread :
  tid:int -> name:string -> proc:process -> ?affinity:int ->
  ?kernel_thread:bool -> unit -> thread

val is_exited : thread -> bool
(** The thread's state is [Exited] (typed stand-in for a polymorphic
    state compare). *)

val state_name : thread_state -> string
