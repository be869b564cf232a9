(* Backend dispatch for the engine's event queue. A plain two-case
   variant rather than a first-class module: the match in each
   operation compiles to a test-and-branch, which keeps the hot path
   free of closure indirection and lets both backends share the one
   {!Sched_entry} handle type. *)

type kind = Heap | Wheel

let kind_name = function Heap -> "heap" | Wheel -> "wheel"

let kind_of_string = function
  | "heap" -> Some Heap
  | "wheel" -> Some Wheel
  | _ -> None

(* LAUBERHORN_SCHED=wheel swaps the engine's default backend process
   wide; unset or "heap" keeps the binary heap. Read once per engine
   creation, never on the hot path, and the choice cannot change
   results — only their cost — so determinism is unaffected. *)
let env_kind_opt () =
  match Sys.getenv_opt "LAUBERHORN_SCHED" with
  | None | Some "" -> None
  | Some s -> (
      match kind_of_string (String.lowercase_ascii s) with
      | Some _ as k -> k
      | None ->
          invalid_arg
            (Printf.sprintf
               "LAUBERHORN_SCHED=%s: expected \"heap\" or \"wheel\"" s))

let env_kind () = match env_kind_opt () with Some k -> k | None -> Heap

type 'a t = H of 'a Event_heap.t | W of 'a Timing_wheel.t

type 'a handle = 'a Sched_entry.t

let create = function
  | Heap -> H (Event_heap.create ())
  | Wheel -> W (Timing_wheel.create ())

let kind = function H _ -> Heap | W _ -> Wheel

let is_empty = function
  | H h -> Event_heap.is_empty h
  | W w -> Timing_wheel.is_empty w

let live_count = function
  | H h -> Event_heap.live_count h
  | W w -> Timing_wheel.live_count w

let[@hot_path] push t ~time payload =
  match t with
  | H h -> Event_heap.push h ~time payload
  | W w -> Timing_wheel.push w ~time payload

let[@hot_path] cancel t e =
  match t with
  | H h -> Event_heap.cancel h e
  | W w -> Timing_wheel.cancel w e

let[@hot_path] pop t =
  match t with H h -> Event_heap.pop h | W w -> Timing_wheel.pop w

let[@hot_path] peek_time t =
  match t with
  | H h -> Event_heap.peek_time h
  | W w -> Timing_wheel.peek_time w

(* The wheel has no allocation-free pop of its own; it answers through
   its option-returning pair, so only the heap path is allocation-free. *)
let[@hot_path] min_time t =
  match t with
  | H h -> Event_heap.min_time h
  | W w -> (
      match Timing_wheel.peek_time w with Some tm -> tm | None -> max_int)

let[@hot_path] pop_min t =
  match t with
  | H h -> Event_heap.pop_min h
  | W w -> (
      match Timing_wheel.pop w with
      | Some (_, payload) -> payload
      | None -> invalid_arg "Scheduler.pop_min: empty queue")

let validate = function
  | H h -> Event_heap.validate h
  | W w -> Timing_wheel.validate w
