(* Host-side clocks and allocation counters. Everything here measures
   the simulator process, never the simulated hardware. *)

let now_ns () = Monotonic_clock.now ()
let wall_s () = Int64.to_float (now_ns ()) *. 1e-9

(* Process CPU time: user + system over every thread and domain. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Minor-heap words allocated so far, summed over all domains.
   [Gc.minor_words] counts only the calling domain; [Gc.quick_stat]
   adds the other domains' counts (exact once they have been joined,
   which the sharded engine does at the end of every run). *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

type cost = { wall : float; cpu : float; words : float }

let zero = { wall = 0.; cpu = 0.; words = 0. }

let add a b =
  { wall = a.wall +. b.wall; cpu = a.cpu +. b.cpu; words = a.words +. b.words }

(* Run [f] and return its result with the host cost it took. *)
let measure f =
  let w0 = minor_words () in
  let c0 = cpu_s () in
  let t0 = wall_s () in
  let r = f () in
  let t1 = wall_s () in
  let c1 = cpu_s () in
  let w1 = minor_words () in
  (r, { wall = t1 -. t0; cpu = c1 -. c0; words = w1 -. w0 })

let peak_heap_mb () =
  let st = Gc.quick_stat () in
  float_of_int st.Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.

(* A fixed reference computation that shares no code with the
   simulator: a binary-heap event queue, a hash table over a few MB of
   live data, and short-lived 64-byte buffers, the mix of work a
   discrete-event model does. Timed before and after every round, it
   measures how fast the host runs at that moment; a round's host times
   are scaled by [nominal_reference_s] over the mean of the two times,
   so that drift in the speed of a shared host cancels out. *)
let reference_work () =
  let heap = Array.make 8192 0 in
  let size = ref 0 in
  let push v =
    let i = ref !size in
    incr size;
    heap.(!i) <- v;
    while !i > 0 && heap.((!i - 1) / 2) > heap.(!i) do
      let p = (!i - 1) / 2 in
      let t = heap.(p) in
      heap.(p) <- heap.(!i);
      heap.(!i) <- t;
      i := p
    done
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let m = if l < !size && heap.(l) < heap.(!i) then l else !i in
      let m = if r < !size && heap.(r) < heap.(m) then r else m in
      if m = !i then continue := false
      else begin
        let t = heap.(m) in
        heap.(m) <- heap.(!i);
        heap.(!i) <- t;
        i := m
      end
    done;
    top
  in
  let tbl = Hashtbl.create 65536 in
  let x = ref 12345 and acc = ref 0 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    !x
  in
  for _ = 1 to 4096 do
    push (next () land 0xffff)
  done;
  for i = 0 to 99_999 do
    let t = pop () in
    push (t + (next () land 0xfff));
    let k = next () land 0xffff in
    (match Hashtbl.find_opt tbl k with
    | Some (old : bytes) -> acc := !acc + Char.code (Bytes.get old 0)
    | None -> ());
    Hashtbl.replace tbl k (Bytes.make 64 (Char.unsafe_chr (i land 0xff)))
  done;
  Sys.opaque_identity !acc

(* The reference computation's time on the host the benchmark was tuned
   on (Intel Xeon, 2 vCPUs, 2.1 GHz), so scaled figures stay close to
   raw wall-clock ones there. *)
let nominal_reference_s = 0.035

let reference_s () =
  let t0 = wall_s () in
  ignore (reference_work ());
  wall_s () -. t0
