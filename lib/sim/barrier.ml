(* Sense-reversing barrier for the sharded engine's window steps.

   Blocking (Mutex + Condition), not spinning: simulation windows are
   coarse (thousands of events), so the parking cost is noise, and a
   spinning barrier would be pathological when domains outnumber cores
   — on a single-core CI box a spinner would burn a full scheduling
   quantum per window per domain.

   Sense reversal lets the same barrier be reused every window with no
   reset step: each arrival epoch flips [sense], and a waiter watches
   for the flip rather than a counter reaching zero, so a fast thread
   entering the next window cannot lap a slow one still leaving the
   previous wait. *)

type t = {
  m : Mutex.t;
  cv : Condition.t;
  parties : int;
  mutable remaining : int;
  mutable sense : bool;
}

let[@nondet_ok] create parties =
  if parties <= 0 then invalid_arg "Barrier.create: non-positive parties";
  {
    m = Mutex.create ();
    cv = Condition.create ();
    parties;
    remaining = parties;
    sense = false;
  }


(* Arrive and block until all [parties] have arrived. The last arrival
   flips the sense and wakes the rest. Runs between windows, never
   inside one, so it is outside the simulated-time hot path. *)
let[@nondet_ok] await t =
  Mutex.lock t.m;
  let my_sense = t.sense in
  t.remaining <- t.remaining - 1;
  if t.remaining = 0 then begin
    t.remaining <- t.parties;
    t.sense <- not t.sense;
    Condition.broadcast t.cv
  end
  else
    while Bool.equal t.sense my_sense do
      Condition.wait t.cv t.m
    done;
  Mutex.unlock t.m
