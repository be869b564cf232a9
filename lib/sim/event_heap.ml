(* [seq] is the heap-local insertion number used to break timestamp
   ties FIFO; the pair [(time, seq)] totally orders every entry the heap
   ever held. *)
type 'a entry = {
  time : Units.time;
  seq : int;
  payload : 'a;
  mutable cancelled : bool;
}

type 'a handle = 'a entry

(* Entries are stored unboxed in [arr.(0 .. size-1)] — no [option]
   wrapper, no separate handle record: the entry itself is the
   cancellation handle (one allocation per push instead of three).
   Slots at [size] and beyond hold [sentinel], a permanently-cancelled
   dummy entry created from the first push, so vacated slots do not
   retain popped payloads. *)
type 'a t = {
  mutable arr : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  mutable live : int;
  mutable sentinel : 'a entry option;
}

let create () =
  { arr = [||]; size = 0; next_seq = 0; live = 0; sentinel = None }

let is_empty t = t.live = 0
let live_count t = t.live

let[@hot_path] [@inline] entry_lt a b =
  a.time < b.time || (Int.equal a.time b.time && a.seq < b.seq)

(* Hole-based sifts: the moving entry [e] is held aside while a hole
   travels through [arr], so each level costs one pointer store and [e]
   is written once, at its final slot. [(time, seq)] is a strict total
   order, so the layout matches a swap-based sift step for step. *)
let[@hot_path] rec sift_up arr i e =
  if i = 0 then arr.(0) <- e
  else begin
    let parent = (i - 1) / 2 in
    let p = arr.(parent) in
    if entry_lt e p then begin
      arr.(i) <- p;
      sift_up arr parent e
    end
    else arr.(i) <- e
  end

let[@hot_path] rec sift_down arr size i e =
  let l = (2 * i) + 1 in
  if l >= size then arr.(i) <- e
  else begin
    let r = l + 1 in
    let c = if r < size && entry_lt arr.(r) arr.(l) then r else l in
    let child = arr.(c) in
    if entry_lt child e then begin
      arr.(i) <- child;
      sift_down arr size c e
    end
    else arr.(i) <- e
  end

let[@hot_path] push t ~time payload =
  let e = ({ time; seq = t.next_seq; payload; cancelled = false } [@alloc_ok]) in
  t.next_seq <- t.next_seq + 1;
  if Int.equal t.size (Array.length t.arr) then begin
    let s =
      match t.sentinel with
      | Some s -> s
      | None ->
          let s = ({ time = 0; seq = -1; payload; cancelled = true } [@alloc_ok]) in
          t.sentinel <- Some s;
          s
    in
    let cap = max 64 (2 * Array.length t.arr) in
    let arr = Array.make cap s in
    Array.blit t.arr 0 arr 0 t.size;
    t.arr <- arr
  end;
  let i = t.size in
  t.size <- i + 1;
  t.live <- t.live + 1;
  sift_up t.arr i e;
  e

(* In-place filter of cancelled entries followed by Floyd heapify:
   O(size), amortised free because it runs only when cancelled entries
   are the majority and halves [size] at least. *)
let compact t =
  let old_size = t.size in
  let n = ref 0 in
  for i = 0 to old_size - 1 do
    let e = t.arr.(i) in
    if not e.cancelled then begin
      t.arr.(!n) <- e;
      incr n
    end
  done;
  (match t.sentinel with
  | Some s -> Array.fill t.arr !n (old_size - !n) s
  | None -> ());
  t.size <- !n;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down t.arr t.size i t.arr.(i)
  done

let[@hot_path] cancel t h =
  if not h.cancelled then begin
    h.cancelled <- true;
    t.live <- t.live - 1;
    if t.size >= 64 && 2 * (t.size - t.live) > t.size then compact t
  end

(* The last entry fills the root's hole by sifting down from slot 0;
   its old slot takes the sentinel. *)
let[@hot_path] pop_root t =
  let arr = t.arr in
  let e = arr.(0) in
  let size = t.size - 1 in
  t.size <- size;
  let last = arr.(size) in
  (match t.sentinel with Some s -> arr.(size) <- s | None -> ());
  if size > 0 then sift_down arr size 0 last;
  e

(* The allocation-free pair the engine drives. Cancelled entries are
   discarded as they surface: [min_time] drops them from the root until
   a live one heads the heap, so a [pop_min] right after it pops the
   root directly. Only live pops touch [live]; a popped entry is marked
   cancelled so a later [cancel] on its handle is a genuine no-op. *)
let[@hot_path] rec min_time t =
  if t.size = 0 then max_int
  else
    let e = t.arr.(0) in
    if e.cancelled then begin
      ignore (pop_root t);
      min_time t
    end
    else e.time

let[@hot_path] rec pop_min t =
  if t.size = 0 then invalid_arg "Event_heap.pop_min: empty heap";
  let e = pop_root t in
  if e.cancelled then pop_min t
  else begin
    e.cancelled <- true;
    t.live <- t.live - 1;
    e.payload
  end

(* Structural self-check for sanitizer builds: the array prefix
   [0, size) must satisfy the heap order (parent not later than either
   child) and the cancelled-entry bookkeeping must agree with [live].
   O(size); never called on the hot path. *)
let validate t =
  if t.size > Array.length t.arr then
    Error
      (Printf.sprintf "Event_heap: size %d exceeds capacity %d" t.size
         (Array.length t.arr))
  else begin
    let err = ref None in
    for i = 1 to t.size - 1 do
      if Option.is_none !err then begin
        let parent = (i - 1) / 2 in
        if entry_lt t.arr.(i) t.arr.(parent) then
          err :=
            Some
              (Printf.sprintf
                 "Event_heap: order violated at slot %d (t=%d seq=%d) vs \
                  parent %d (t=%d seq=%d)"
                 i t.arr.(i).time t.arr.(i).seq parent t.arr.(parent).time
                 t.arr.(parent).seq)
      end
    done;
    match !err with
    | Some e -> Error e
    | None ->
        let live = ref 0 in
        for i = 0 to t.size - 1 do
          if not t.arr.(i).cancelled then incr live
        done;
        if not (Int.equal !live t.live) then
          Error
            (Printf.sprintf
               "Event_heap: live count drifted (%d stored, %d counted)"
               t.live !live)
        else Ok ()
  end

