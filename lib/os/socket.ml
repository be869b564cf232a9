type 'a t = {
  kern : Kernel.t;
  q : 'a Queue.t;
  waiting : Proc.thread Queue.t;
  mutable total : int;
}

let create kern () =
  { kern; q = Queue.create (); waiting = Queue.create (); total = 0 }

let enqueue t v =
  Queue.add v t.q;
  t.total <- t.total + 1;
  (* Waiters that died (their process was killed) while parked here are
     discarded; the datagram stays queued for the next live receiver. *)
  let rec wake_waiter () =
    match Queue.take_opt t.waiting with
    | Some th when th.Proc.state = Proc.Exited -> wake_waiter ()
    | Some th -> Kernel.wake t.kern th
    | None -> ()
  in
  wake_waiter ()

let recv t th k =
  let rec try_take () =
    match Queue.take_opt t.q with
    | Some v -> k v
    | None ->
        Queue.add th t.waiting;
        Kernel.block t.kern th try_take
  in
  Kernel.run_for t.kern th ~kind:Cpu_account.Kernel
    (Kernel.costs t.kern).Kernel.syscall try_take

let depth t = Queue.length t.q
let enqueued t = t.total
