type config = {
  nqueues : int;
  ring_size : int;
  coalesce_interval : Sim.Units.duration;
  use_iommu : bool;
  mac_pipeline : Sim.Units.duration;
  descriptor_write : Sim.Units.duration;
}

let default_config =
  {
    nqueues = 4;
    ring_size = 512;
    coalesce_interval = Sim.Units.us 20;
    use_iommu = true;
    mac_pipeline = 300;
    descriptor_write = 150;
  }

type queue = {
  ring : Net.Slice.t Ring.t;
  msix : Msix.t;
  buf_base : int;  (* synthetic IOVA region for this queue's buffers *)
}

type t = {
  engine : Sim.Engine.t;
  prof : Coherence.Interconnect.profile;
  cfg : config;
  rss : Rss.t;
  queues : queue array;
  iommu : Iommu.t option;
  mac : Mac.t;
  pool : Net.Pool.t;
  fault : Fault.Plan.link;
  frng : Sim.Rng.t;  (* fault stream; drawn from only when faults are on *)
  mutable delivered : int;
  mutable fault_dropped : int;  (* forced completion drops (plan.nic.drop) *)
  mutable corrupt_dropped : int;  (* descriptors the driver parse rejected *)
  mutable steering : (Net.Frame.t -> int) option;
  mutable steering_cost : int;
      (* statically verified per-packet cost of the installed steering
         program (ns); 0 when steering is off — the off path charges
         nothing. *)
}

let buffer_bytes = 2048

let queue t q =
  if q < 0 || q >= Array.length t.queues then
    invalid_arg (Printf.sprintf "Dma_nic: no queue %d" q);
  t.queues.(q)

(* Receive-path hardware steps for one frame. *)
let rx_frame t frame =
  let qi =
    match t.steering with
    | Some f -> f frame mod Array.length t.queues
    | None -> Rss.queue_of_frame t.rss frame
  in
  let q = queue t qi in
  let translate_cost =
    match t.iommu with
    | Some mmu ->
        let slot = Ring.produced q.ring land (t.cfg.ring_size - 1) in
        Iommu.translate mmu ~iova:(q.buf_base + (slot * buffer_bytes))
    | None -> 0
  in
  let payload_dma =
    Coherence.Interconnect.dma_transfer t.prof
      ~bytes:(Net.Frame.wire_size frame)
  in
  let steer_cost = match t.steering with Some _ -> t.steering_cost | None -> 0 in
  let total = steer_cost + translate_cost + payload_dma + t.cfg.descriptor_write in
  ignore
    (Sim.Engine.schedule_after t.engine ~after:total (fun () ->
         (* DMA completion: the wire bytes land in a pooled receive
            buffer and the descriptor carries a view of them — the
            driver parses in place and returns the buffer at consume.
            Jumbo frames that exceed the posted buffer size get a
            one-off allocation outside the pool. *)
         let size = Net.Frame.wire_size frame in
         let buf =
           if size <= buffer_bytes then Net.Pool.acquire t.pool
           else Bytes.create size
         in
         let slice = Net.Frame.encode_into frame buf in
         if
           t.fault.Fault.Plan.drop > 0.
           && Sim.Rng.float t.frng < t.fault.Fault.Plan.drop
         then begin
           (* Injected completion fault: the frame vanishes at the DMA
              stage — a counted tail drop that must release its pooled
              buffer like any other rejection. *)
           t.fault_dropped <- t.fault_dropped + 1;
           if Bytes.length buf = buffer_bytes then Net.Pool.release t.pool buf
         end
         else begin
           if
             t.fault.Fault.Plan.corrupt > 0.
             && Sim.Rng.float t.frng < t.fault.Fault.Plan.corrupt
           then
             (* DMA corruption: the descriptor's bytes are damaged in
                host memory; the driver's in-place parse (checksums)
                rejects it at [consume]. *)
             Fault.Link.flip_checksummed t.frng
               ~ip_payload_len:frame.Net.Frame.ip.Net.Ipv4.payload_len slice;
           if Ring.produce q.ring slice then begin
             t.delivered <- t.delivered + 1;
             Msix.raise_event q.msix
           end
           else if Bytes.length buf = buffer_bytes then
             Net.Pool.release t.pool buf
         end))

let create engine prof ?(config = default_config) ?(fault = Fault.Plan.none)
    ?metrics ~on_rx_interrupt () =
  if config.nqueues <= 0 then invalid_arg "Dma_nic.create: nqueues <= 0";
  let iommu = if config.use_iommu then Some (Iommu.create ()) else None in
  let queues =
    Array.init config.nqueues (fun q ->
        let buf_base = (q + 1) * 0x1000_0000 in
        (match iommu with
        | Some mmu ->
            Iommu.map mmu ~iova:buf_base
              ~len:(config.ring_size * buffer_bytes)
        | None -> ());
        {
          ring = Ring.create ~size:config.ring_size;
          msix =
            Msix.create engine ~min_interval:config.coalesce_interval
              ~fire:(fun () -> on_rx_interrupt ~queue:q)
              ();
          buf_base;
        })
  in
  (* The MAC's sink needs [t], which needs the MAC: tie the knot. *)
  let sink_ref = ref (fun (_ : Net.Frame.t) -> ()) in
  let mac =
    Mac.create engine ~pipeline_delay:config.mac_pipeline
      ~sink:(fun f -> !sink_ref f)
      ()
  in
  let t =
    {
      engine;
      prof;
      cfg = config;
      rss = Rss.create ~queues:config.nqueues ();
      queues;
      iommu;
      mac;
      pool = Net.Pool.create ~prealloc:config.ring_size ~buffer_bytes ();
      fault = fault.Fault.Plan.nic;
      frng = Fault.Plan.derived_rng fault ~salt:11;
      delivered = 0;
      fault_dropped = 0;
      corrupt_dropped = 0;
      steering = None;
      steering_cost = 0;
    }
  in
  sink_ref := (fun f -> rx_frame t f);
  (match metrics with
  | None -> ()
  | Some m ->
      Obs.Metrics.derive m "nic_ring_drops" (fun () ->
          Array.fold_left (fun acc q -> acc + Ring.drops q.ring) 0 t.queues);
      Obs.Metrics.derive m "nic_fault_drops" (fun () -> t.fault_dropped);
      Obs.Metrics.derive m "nic_corrupt_drops" (fun () -> t.corrupt_dropped);
      Obs.Metrics.derive m "pool_outstanding" (fun () ->
          Net.Pool.outstanding t.pool));
  t

let rx_from_wire t frame = Mac.rx t.mac frame

let set_steering ?(cost = 0) t f =
  if cost < 0 then invalid_arg "Dma_nic.set_steering: cost < 0";
  t.steering <- Some f;
  t.steering_cost <- cost

let rss_queue t frame = Rss.queue_of_frame t.rss frame
let nqueues t = Array.length t.queues
let rx_ring t ~queue:q = (queue t q).ring

(* Driver-side receive: parse the oldest descriptor's bytes in place,
   hand the zero-copy view to [f], then return the buffer to the pool
   before the view can escape misuse (the view is only valid inside
   [f]). A descriptor whose bytes fail validation (DMA corruption under
   a fault plan) is counted, its buffer released, and the next
   descriptor tried — [None] still means "ring empty", never "bad
   frame", so NAPI/poll loops cannot stall on a corrupt head. *)
let rec consume t ~queue:q f =
  match Ring.consume (queue t q).ring with
  | None -> None
  | Some slice -> (
      let release () =
        let buf = slice.Net.Slice.base in
        if Bytes.length buf = buffer_bytes then Net.Pool.release t.pool buf
      in
      match Net.Frame.parse_slice slice with
      | Ok view ->
          let result = f view in
          release ();
          Some result
      | Error _ ->
          t.corrupt_dropped <- t.corrupt_dropped + 1;
          release ();
          consume t ~queue:q f)

let pool t = t.pool
let mask_irq t ~queue:q = Msix.mask (queue t q).msix
let unmask_irq t ~queue:q = Msix.unmask (queue t q).msix

let transmit t frame ~via =
  (* Descriptor fetch, then payload DMA read, then the wire. *)
  let cost =
    t.prof.Coherence.Interconnect.dma_read
    + Coherence.Interconnect.dma_transfer t.prof
        ~bytes:(Net.Frame.wire_size frame)
  in
  ignore (Sim.Engine.schedule_after t.engine ~after:cost (fun () -> via frame))

let rx_delivered t = t.delivered

let rx_dropped t =
  Array.fold_left (fun acc q -> acc + Ring.drops q.ring) 0 t.queues

let rx_corrupt_dropped t = t.corrupt_dropped

let interrupts_fired t =
  Array.fold_left (fun acc q -> acc + Msix.fired q.msix) 0 t.queues

let iommu t = t.iommu
