(* Mapped-page set: int keys hashed and compared directly, with no call
   into the polymorphic hash or compare. *)
module Pages = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash p = p land max_int
end)

type t = {
  iotlb_entries : int;
  hit_cost : Sim.Units.duration;
  walk_cost : Sim.Units.duration;
  page_size : int;
  mapped : unit Pages.t;  (* mapped page numbers *)
  (* IOTLB slots [0, used): cached page number and its last-use stamp *)
  tlb_pages : int array;
  tlb_stamps : int array;
  mutable used : int;
  (* the two non-fault answers of [translate_opt], allocated once *)
  hit_answer : Sim.Units.duration option;
  miss_answer : Sim.Units.duration option;
  mutable stamp : int;
  mutable hits : int;
  mutable misses : int;
  mutable faults : int;
}

let create ?(iotlb_entries = 64) ?(hit_cost = 20) ?(walk_cost = 250)
    ?(page_size = 4096) () =
  if iotlb_entries <= 0 then invalid_arg "Iommu.create: iotlb_entries <= 0";
  if page_size <= 0 then invalid_arg "Iommu.create: page_size <= 0";
  {
    iotlb_entries;
    hit_cost;
    walk_cost;
    page_size;
    mapped = Pages.create 256;
    tlb_pages = Array.make iotlb_entries 0;
    tlb_stamps = Array.make iotlb_entries 0;
    used = 0;
    hit_answer = Some hit_cost;
    miss_answer = Some (walk_cost + hit_cost);
    stamp = 0;
    hits = 0;
    misses = 0;
    faults = 0;
  }

let pages t ~iova ~len =
  if len <= 0 then invalid_arg "Iommu: non-positive length";
  let first = iova / t.page_size and last = (iova + len - 1) / t.page_size in
  List.init (last - first + 1) (fun i -> first + i)

(* Slot in [i, used) caching [page], or -1. *)
let rec find_slot t page i =
  if i >= t.used then -1
  else if t.tlb_pages.(i) = page then i
  else find_slot t page (i + 1)

let map t ~iova ~len =
  List.iter (fun p -> Pages.replace t.mapped p ()) (pages t ~iova ~len)

let unmap t ~iova ~len =
  List.iter
    (fun p ->
      Pages.remove t.mapped p;
      let slot = find_slot t p 0 in
      if slot >= 0 then begin
        (* the last live slot fills the hole; slot order carries no
           meaning, only the stamps do *)
        let last = t.used - 1 in
        t.tlb_pages.(slot) <- t.tlb_pages.(last);
        t.tlb_stamps.(slot) <- t.tlb_stamps.(last);
        t.used <- last
      end)
    (pages t ~iova ~len)

(* Slot for a page that missed: a free one, else the least recently
   used. Stamps are unique, so the victim is the same one an exact LRU
   over any container would pick. *)
let victim_slot t =
  if t.used < t.iotlb_entries then begin
    let slot = t.used in
    t.used <- slot + 1;
    slot
  end
  else begin
    let best = ref 0 in
    for i = 1 to t.used - 1 do
      if t.tlb_stamps.(i) < t.tlb_stamps.(!best) then best := i
    done;
    !best
  end

(* One access: updates the IOTLB and the counters and says which of
   the three outcomes it was. *)
type outcome = Fault | Hit | Miss

let[@hot_path] access t ~iova =
  let page = iova / t.page_size in
  if not (Pages.mem t.mapped page) then begin
    t.faults <- t.faults + 1;
    Fault
  end
  else begin
    t.stamp <- t.stamp + 1;
    let slot = find_slot t page 0 in
    if slot >= 0 then begin
      t.hits <- t.hits + 1;
      t.tlb_stamps.(slot) <- t.stamp;
      Hit
    end
    else begin
      t.misses <- t.misses + 1;
      let slot = victim_slot t in
      t.tlb_pages.(slot) <- page;
      t.tlb_stamps.(slot) <- t.stamp;
      Miss
    end
  end

let[@hot_path] translate_opt t ~iova =
  match access t ~iova with
  | Hit -> t.hit_answer
  | Miss -> t.miss_answer
  | Fault -> None

let[@hot_path] translate t ~iova =
  match access t ~iova with
  | Hit -> t.hit_cost
  | Miss -> t.walk_cost + t.hit_cost
  | Fault ->
      invalid_arg (Printf.sprintf "Iommu.translate: DMA fault at 0x%x" iova)

let hits t = t.hits
let misses t = t.misses
let faults t = t.faults
