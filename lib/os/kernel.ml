type costs = {
  ctx_switch_process : Sim.Units.duration;
  ctx_switch_thread : Sim.Units.duration;
  syscall : Sim.Units.duration;
  wake : Sim.Units.duration;
  ipi_latency : Sim.Units.duration;
  ipi_handler : Sim.Units.duration;
  irq_latency : Sim.Units.duration;
  timer_tick_period : Sim.Units.duration;
  timer_tick_cost : Sim.Units.duration;
  quantum : Sim.Units.duration;
}

let default_costs =
  {
    ctx_switch_process = Sim.Units.ns 1_300;
    ctx_switch_thread = Sim.Units.ns 500;
    syscall = Sim.Units.ns 300;
    wake = Sim.Units.ns 500;
    ipi_latency = Sim.Units.ns 800;
    ipi_handler = Sim.Units.ns 300;
    irq_latency = Sim.Units.ns 1_500;
    timer_tick_period = Sim.Units.ms 1;
    timer_tick_cost = Sim.Units.ns 200;
    quantum = Sim.Units.ms 5;
  }

type core = {
  cid : int;
  rq : Runqueue.t;
  acct : Cpu_account.t;
  mutable running : Proc.thread option;
  mutable need_resched : bool;
  mutable last_pid : int;
  mutable stall_start : Sim.Units.time option;
}

type hook =
  core:int -> prev:Proc.thread option -> next:Proc.thread option -> unit

type t = {
  engine : Sim.Engine.t;
  kcosts : costs;
  cores : core array;
  work_stealing : bool;
  mutable next_pid : int;
  mutable next_tid : int;
  mutable hooks : hook list;
  mutable wake_hooks : (core:int -> Proc.thread -> unit) list;
  mutable proc_exit_hooks : (Proc.process -> unit) list;
  mutable proc_respawn_hooks : (Proc.process -> unit) list;
  mutable kills : int;
  mutable irq_rr : int;
}

let engine t = t.engine
let ncores t = Array.length t.cores
let costs t = t.kcosts

let fire_hooks t core ~prev ~next =
  List.iter (fun h -> h ~core ~prev ~next) t.hooks

let core t i =
  if i < 0 || i >= Array.length t.cores then
    invalid_arg (Printf.sprintf "Kernel: no core %d" i);
  t.cores.(i)

(* Dispatch the next runnable thread onto an idle core. *)
let rec dispatch t c =
  match c.running with
  | Some _ -> ()
  | None -> (
      let next =
        match Runqueue.pop c.rq with
        | Some th -> Some th
        | None -> if t.work_stealing then steal t c else None
      in
      match next with
      | None -> ()
      | Some th ->
          let switch_cost =
            if th.Proc.kernel_thread || th.Proc.proc.Proc.pid = c.last_pid
            then t.kcosts.ctx_switch_thread
            else t.kcosts.ctx_switch_process
          in
          c.running <- Some th;
          th.Proc.state <- Proc.Running c.cid;
          th.Proc.last_core <- Some c.cid;
          th.Proc.quantum_start <- Sim.Engine.now t.engine + switch_cost;
          if not th.Proc.kernel_thread then
            c.last_pid <- th.Proc.proc.Proc.pid;
          Cpu_account.charge c.acct Cpu_account.Kernel switch_cost;
          fire_hooks t c.cid ~prev:None ~next:(Some th);
          let resume =
            match th.Proc.resume with
            | Some f ->
                th.Proc.resume <- None;
                f
            | None ->
                invalid_arg
                  (Printf.sprintf "Kernel.dispatch: thread %d has no resume"
                     th.Proc.tid)
          in
          ignore
            (Sim.Engine.schedule_after t.engine ~after:switch_cost resume))

and steal t thief =
  (* Pull an unpinned thread from the longest other queue. *)
  let best = ref None in
  Array.iter
    (fun c ->
      if c.cid <> thief.cid && Runqueue.length c.rq > 0 then
        match !best with
        | Some b when Runqueue.length b.rq >= Runqueue.length c.rq -> ()
        | Some _ | None -> best := Some c)
    t.cores;
  match !best with
  | None -> None
  | Some victim -> (
      match Runqueue.pop victim.rq with
      | None -> None
      | Some th ->
          if th.Proc.affinity = None then Some th
          else begin
            (* Pinned: give it back; no second attempt this round. *)
            Runqueue.enqueue victim.rq th;
            None
          end)

let release_core t c th =
  (match c.running with
  | Some cur when cur == th -> ()
  | Some cur ->
      invalid_arg
        (Printf.sprintf "Kernel: thread %d releasing core %d owned by %d"
           th.Proc.tid c.cid cur.Proc.tid)
  | None ->
      invalid_arg
        (Printf.sprintf "Kernel: thread %d releasing idle core %d"
           th.Proc.tid c.cid));
  c.running <- None;
  fire_hooks t c.cid ~prev:(Some th) ~next:None;
  dispatch t c

let running_core t th =
  match th.Proc.state with
  | Proc.Running cid -> core t cid
  | Proc.Ready | Proc.Blocked | Proc.Exited ->
      invalid_arg
        (Printf.sprintf "Kernel: thread %d (%s) is not running" th.Proc.tid
           (Proc.state_name th.Proc.state))

let start_ticks t c =
  let rec tick () =
    (match c.running with
    | None -> () (* tickless idle *)
    | Some th ->
        Cpu_account.charge c.acct Cpu_account.Kernel t.kcosts.timer_tick_cost;
        let ran = Sim.Engine.now t.engine - th.Proc.quantum_start in
        if ran >= t.kcosts.quantum && not (Runqueue.is_empty c.rq) then
          c.need_resched <- true);
    ignore
      (Sim.Engine.schedule_after t.engine ~after:t.kcosts.timer_tick_period
         tick)
  in
  ignore
    (Sim.Engine.schedule_after t.engine ~after:t.kcosts.timer_tick_period tick)

let create engine ~ncores ?(costs = default_costs) ?(work_stealing = true) ()
    =
  if ncores <= 0 then invalid_arg "Kernel.create: need at least one core";
  let cores =
    Array.init ncores (fun cid ->
        {
          cid;
          rq = Runqueue.create ();
          acct = Cpu_account.create ();
          running = None;
          need_resched = false;
          last_pid = -1;
          stall_start = None;
        })
  in
  let t =
    {
      engine;
      kcosts = costs;
      cores;
      work_stealing;
      next_pid = 1;
      next_tid = 1;
      hooks = [];
      wake_hooks = [];
      proc_exit_hooks = [];
      proc_respawn_hooks = [];
      kills = 0;
      irq_rr = 0;
    }
  in
  Array.iter (fun c -> start_ticks t c) cores;
  t

let new_process t ~name =
  let pid = t.next_pid in
  t.next_pid <- t.next_pid + 1;
  Proc.make_process ~pid ~name

let spawn t proc ~name ?affinity ?(kernel_thread = false) body =
  let tid = t.next_tid in
  t.next_tid <- t.next_tid + 1;
  let th = Proc.make_thread ~tid ~name ~proc ?affinity ~kernel_thread () in
  th.Proc.resume <- Some body;
  th

let pick_wake_core t th =
  match th.Proc.affinity with
  | Some cid -> core t cid
  | None -> (
      let idle c = c.running = None && Runqueue.is_empty c.rq in
      let last_ok =
        match th.Proc.last_core with
        | Some cid when idle (core t cid) -> Some (core t cid)
        | Some _ | None -> None
      in
      match last_ok with
      | Some c -> c
      | None -> (
          match Array.find_opt idle t.cores with
          | Some c -> c
          | None ->
              Array.fold_left
                (fun best c ->
                  if Runqueue.length c.rq < Runqueue.length best.rq then c
                  else best)
                t.cores.(0) t.cores))

let wake t th =
  match th.Proc.state with
  | Proc.Ready | Proc.Running _ -> ()
  (* Tolerated no-op: a timer or I/O completion may race with a crash
     (a sleep's wake firing after the process was killed). *)
  | Proc.Exited -> ()
  | Proc.Blocked ->
      let c = pick_wake_core t th in
      th.Proc.state <- Proc.Ready;
      Cpu_account.charge c.acct Cpu_account.Kernel t.kcosts.wake;
      Runqueue.enqueue c.rq th;
      if c.running <> None then
        List.iter (fun h -> h ~core:c.cid th) t.wake_hooks;
      dispatch t c

let exit_thread t th =
  let c = running_core t th in
  th.Proc.state <- Proc.Exited;
  th.Proc.resume <- None;
  release_core t c th

(* Crash a whole process: every thread transitions to Exited wherever
   it is. Running threads release their cores (closing an open memory
   stall first, so the ledger balances); Ready threads become stale
   run-queue entries that [Runqueue.pop] skips; Blocked threads simply
   never wake. Context-switch hooks fire for each vacated core, so the
   NIC mirror learns about the death with its usual push lag. *)
let kill t proc =
  if proc.Proc.alive then begin
    proc.Proc.alive <- false;
    t.kills <- t.kills + 1;
    List.iter
      (fun (th : Proc.thread) ->
        match th.Proc.state with
        | Proc.Exited -> ()
        | Proc.Ready | Proc.Blocked ->
            th.Proc.state <- Proc.Exited;
            th.Proc.resume <- None
        | Proc.Running cid ->
            let c = core t cid in
            (match (c.running, c.stall_start) with
            | Some cur, Some start when cur == th ->
                c.stall_start <- None;
                Cpu_account.charge c.acct Cpu_account.Stall
                  (Sim.Engine.now t.engine - start)
            | _ -> ());
            th.Proc.state <- Proc.Exited;
            th.Proc.resume <- None;
            (match c.running with
            | Some cur when cur == th ->
                c.running <- None;
                fire_hooks t c.cid ~prev:(Some th) ~next:None;
                dispatch t c
            | Some _ | None -> ()))
      proc.Proc.members;
    List.iter (fun h -> h proc) t.proc_exit_hooks
  end

(* Bring a killed process back. Old thread bodies were consumed
   closures, so the caller must [spawn] fresh threads into the process
   afterwards; the pid is stable across the cycle. *)
let respawn t proc =
  if not proc.Proc.alive then begin
    proc.Proc.alive <- true;
    List.iter (fun h -> h proc) t.proc_respawn_hooks
  end

let preempt t c th k =
  c.need_resched <- false;
  th.Proc.resume <- Some k;
  th.Proc.state <- Proc.Ready;
  Runqueue.enqueue c.rq th;
  c.running <- None;
  fire_hooks t c.cid ~prev:(Some th) ~next:None;
  dispatch t c

let run_for t th ~kind d k =
  if d < 0 then invalid_arg "Kernel.run_for: negative duration";
  let c = running_core t th in
  ignore
    (Sim.Engine.schedule_after t.engine ~after:d (fun () ->
         match th.Proc.state with
         | Proc.Exited ->
             (* Killed mid-segment: the continuation dies with the
                thread (the core was already released by [kill]). *)
             ()
         | Proc.Ready | Proc.Running _ | Proc.Blocked ->
             Cpu_account.charge c.acct kind d;
             if c.need_resched && not (Runqueue.is_empty c.rq) then
               preempt t c th k
             else k ()))

let yield t th k =
  let c = running_core t th in
  run_for t th ~kind:Cpu_account.Kernel t.kcosts.syscall (fun () ->
      if Runqueue.is_empty c.rq then k ()
      else begin
        th.Proc.resume <- Some k;
        th.Proc.state <- Proc.Ready;
        Runqueue.enqueue c.rq th;
        c.running <- None;
        fire_hooks t c.cid ~prev:(Some th) ~next:None;
        dispatch t c
      end)

let block t th k =
  let c = running_core t th in
  th.Proc.resume <- Some k;
  th.Proc.state <- Proc.Blocked;
  release_core t c th

let sleep t th d k =
  if d < 0 then invalid_arg "Kernel.sleep: negative duration";
  block t th k;
  ignore (Sim.Engine.schedule_after t.engine ~after:d (fun () -> wake t th))

let stall_begin t th =
  let c = running_core t th in
  if c.stall_start <> None then
    invalid_arg "Kernel.stall_begin: core already stalled";
  c.stall_start <- Some (Sim.Engine.now t.engine)

let stall_end t th =
  let c = running_core t th in
  match c.stall_start with
  | None -> invalid_arg "Kernel.stall_end: core not stalled"
  | Some start ->
      c.stall_start <- None;
      Cpu_account.charge c.acct Cpu_account.Stall
        (Sim.Engine.now t.engine - start)

let run_irq t ?core:cid ~cost handler =
  let c =
    match cid with
    | Some cid -> core t cid
    | None -> (
        match Array.find_opt (fun c -> c.running = None) t.cores with
        | Some c -> c
        | None ->
            let c = t.cores.(t.irq_rr mod Array.length t.cores) in
            t.irq_rr <- t.irq_rr + 1;
            c)
  in
  ignore
    (Sim.Engine.schedule_after t.engine ~after:t.kcosts.irq_latency
       (fun () ->
         Cpu_account.charge c.acct Cpu_account.Kernel cost;
         handler ~core:c.cid))

let send_ipi t ~core:cid k =
  let c = core t cid in
  ignore
    (Sim.Engine.schedule_after t.engine ~after:t.kcosts.ipi_latency
       (fun () ->
         Cpu_account.charge c.acct Cpu_account.Kernel t.kcosts.ipi_handler;
         k ()))

let current t ~core:cid = (core t cid).running
let core_is_idle t ~core:cid = (core t cid).running = None

let runqueue_length t ~core:cid = Runqueue.length (core t cid).rq

let total_runnable_waiting t =
  Array.fold_left (fun acc c -> acc + Runqueue.length c.rq) 0 t.cores

let account t ~core:cid = (core t cid).acct
let accounts t = Array.to_list t.cores |> List.map (fun c -> c.acct)
let on_context_switch t h = t.hooks <- t.hooks @ [ h ]
let on_wake_enqueue t h = t.wake_hooks <- t.wake_hooks @ [ h ]
let on_process_exit t h = t.proc_exit_hooks <- t.proc_exit_hooks @ [ h ]

let on_process_respawn t h =
  t.proc_respawn_hooks <- t.proc_respawn_hooks @ [ h ]

let kills t = t.kills
