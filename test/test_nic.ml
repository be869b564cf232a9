(* Tests for the traditional-NIC substrate: rings, IOMMU, RSS, MSI-X
   moderation, and the DMA NIC receive path. *)

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---------- Ring ---------- *)

let test_ring_fifo () =
  let r = Nic.Ring.create ~size:4 in
  checkb "produce" true (Nic.Ring.produce r 1);
  checkb "produce" true (Nic.Ring.produce r 2);
  check (Alcotest.option Alcotest.int) "peek" (Some 1) (Nic.Ring.peek r);
  check (Alcotest.option Alcotest.int) "consume" (Some 1) (Nic.Ring.consume r);
  check (Alcotest.option Alcotest.int) "consume" (Some 2) (Nic.Ring.consume r);
  check (Alcotest.option Alcotest.int) "empty" None (Nic.Ring.consume r)

let test_ring_full_drops () =
  let r = Nic.Ring.create ~size:2 in
  ignore (Nic.Ring.produce r 1);
  ignore (Nic.Ring.produce r 2);
  checkb "full rejects" false (Nic.Ring.produce r 3);
  checki "drop counted" 1 (Nic.Ring.drops r);
  ignore (Nic.Ring.consume r);
  checkb "space again" true (Nic.Ring.produce r 3)

let test_ring_size_validation () =
  checkb "non power of two" true
    (try
       ignore (Nic.Ring.create ~size:3);
       false
     with Invalid_argument _ -> true)

let test_ring_notify () =
  let r = Nic.Ring.create ~size:4 in
  let fired = ref 0 in
  Nic.Ring.on_produce r (fun () -> incr fired);
  ignore (Nic.Ring.produce r 1);
  ignore (Nic.Ring.produce r 2);
  checki "notified per produce" 2 !fired

let ring_fifo_property =
  QCheck.Test.make ~name:"ring is FIFO under interleaved produce/consume"
    ~count:200
    QCheck.(list (option (int_bound 100)))
    (fun ops ->
      (* Some v = produce v; None = consume. *)
      let r = Nic.Ring.create ~size:8 in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              let accepted = Nic.Ring.produce r v in
              if accepted then Queue.add v model;
              accepted = (Queue.length model <= 8)
              || (Queue.length model <= 8)
          | None -> (
              match Nic.Ring.consume r, Queue.take_opt model with
              | Some a, Some b -> a = b
              | None, None -> true
              | _ -> false))
        ops)

(* ---------- IOMMU ---------- *)

let test_iommu_hit_miss_fault () =
  let mmu = Nic.Iommu.create ~iotlb_entries:2 ~hit_cost:10 ~walk_cost:100 () in
  Nic.Iommu.map mmu ~iova:0x1000 ~len:4096;
  checki "first access walks" 110 (Nic.Iommu.translate mmu ~iova:0x1000);
  checki "second hits" 10 (Nic.Iommu.translate mmu ~iova:0x1fff);
  checki "hits" 1 (Nic.Iommu.hits mmu);
  checki "misses" 1 (Nic.Iommu.misses mmu);
  checkb "fault on unmapped" true
    (Nic.Iommu.translate_opt mmu ~iova:0x9999_0000 = None);
  checki "fault counted" 1 (Nic.Iommu.faults mmu);
  checkb "translate raises on fault" true
    (try
       ignore (Nic.Iommu.translate mmu ~iova:0x9999_0000);
       false
     with Invalid_argument _ -> true)

let test_iommu_lru_eviction () =
  let mmu = Nic.Iommu.create ~iotlb_entries:2 ~hit_cost:10 ~walk_cost:100 () in
  List.iter (fun i -> Nic.Iommu.map mmu ~iova:(i * 4096) ~len:4096) [ 1; 2; 3 ];
  ignore (Nic.Iommu.translate mmu ~iova:4096);
  ignore (Nic.Iommu.translate mmu ~iova:8192);
  ignore (Nic.Iommu.translate mmu ~iova:12288) (* evicts page 1 (LRU) *);
  checki "page 1 misses again" 110 (Nic.Iommu.translate mmu ~iova:4096)

let test_iommu_unmap () =
  let mmu = Nic.Iommu.create () in
  Nic.Iommu.map mmu ~iova:0 ~len:8192;
  ignore (Nic.Iommu.translate mmu ~iova:0);
  Nic.Iommu.unmap mmu ~iova:0 ~len:4096;
  checkb "unmapped page faults" true
    (Nic.Iommu.translate_opt mmu ~iova:0 = None);
  checkb "other page survives" true
    (Nic.Iommu.translate_opt mmu ~iova:4096 <> None)

(* Reference model: the IOTLB as a most-recent-first list, evicting
   the list's tail. Obviously an exact LRU; the array IOTLB must agree
   with it on every access. *)
type iotlb_model = {
  cap : int;
  mutable mapped_pages : int list;
  mutable lru : int list;  (* most recently used first *)
  mutable m_hits : int;
  mutable m_misses : int;
  mutable m_faults : int;
}

let model_translate m ~hit ~walk page =
  if not (List.mem page m.mapped_pages) then begin
    m.m_faults <- m.m_faults + 1;
    None
  end
  else if List.mem page m.lru then begin
    m.m_hits <- m.m_hits + 1;
    m.lru <- page :: List.filter (fun p -> p <> page) m.lru;
    Some hit
  end
  else begin
    m.m_misses <- m.m_misses + 1;
    let kept =
      if List.length m.lru >= m.cap then
        List.filteri (fun i _ -> i < m.cap - 1) m.lru
      else m.lru
    in
    m.lru <- page :: kept;
    Some (walk + hit)
  end

type iommu_op = Map of int * int | Unmap of int * int | Access of int * int

let iommu_op_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map2 (fun p n -> Map (p, n)) (int_bound 11) (int_range 1 3));
        (1, map2 (fun p n -> Unmap (p, n)) (int_bound 11) (int_range 1 2));
        (8, map2 (fun p off -> Access (p, off)) (int_bound 11) (int_bound 4095));
      ])

let pp_iommu_op = function
  | Map (p, n) -> Printf.sprintf "map %d+%d" p n
  | Unmap (p, n) -> Printf.sprintf "unmap %d+%d" p n
  | Access (p, off) -> Printf.sprintf "access %d:%d" p off

let iommu_matches_lru_model =
  let hit = 10 and walk = 100 and page = 4096 in
  QCheck.Test.make ~name:"array IOTLB = list LRU model" ~count:500
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "entries=%d [%s]" cap
           (String.concat "; " (List.map pp_iommu_op ops)))
       QCheck.Gen.(pair (int_range 1 6) (list_size (int_bound 200) iommu_op_gen)))
    (fun (cap, ops) ->
      let mmu =
        Nic.Iommu.create ~iotlb_entries:cap ~hit_cost:hit ~walk_cost:walk ()
      in
      let m =
        { cap; mapped_pages = []; lru = []; m_hits = 0; m_misses = 0;
          m_faults = 0 }
      in
      let pages p n = List.init n (fun i -> p + i) in
      List.for_all
        (fun op ->
          (match op with
          | Map (p, n) ->
              Nic.Iommu.map mmu ~iova:(p * page) ~len:(n * page);
              m.mapped_pages <-
                List.filter (fun q -> not (List.mem q m.mapped_pages)) (pages p n)
                @ m.mapped_pages;
              true
          | Unmap (p, n) ->
              Nic.Iommu.unmap mmu ~iova:(p * page) ~len:(n * page);
              let gone q = List.mem q (pages p n) in
              m.mapped_pages <- List.filter (fun q -> not (gone q)) m.mapped_pages;
              m.lru <- List.filter (fun q -> not (gone q)) m.lru;
              true
          | Access (p, off) ->
              Nic.Iommu.translate_opt mmu ~iova:((p * page) + off)
              = model_translate m ~hit ~walk p)
          && Nic.Iommu.hits mmu = m.m_hits
          && Nic.Iommu.misses mmu = m.m_misses
          && Nic.Iommu.faults mmu = m.m_faults)
        ops)

let test_iommu_single_entry_unmap () =
  (* one-entry IOTLB: unmapping the cached page frees the slot, and a
     remapped page walks again *)
  let mmu = Nic.Iommu.create ~iotlb_entries:1 ~hit_cost:10 ~walk_cost:100 () in
  Nic.Iommu.map mmu ~iova:0 ~len:8192;
  checki "walk" 110 (Nic.Iommu.translate mmu ~iova:0);
  checki "hit" 10 (Nic.Iommu.translate mmu ~iova:100);
  checki "other page evicts" 110 (Nic.Iommu.translate mmu ~iova:4096);
  Nic.Iommu.unmap mmu ~iova:4096 ~len:4096;
  Nic.Iommu.map mmu ~iova:4096 ~len:4096;
  checki "remapped page walks" 110 (Nic.Iommu.translate mmu ~iova:4096);
  checki "then hits" 10 (Nic.Iommu.translate mmu ~iova:4096);
  checki "hits" 2 (Nic.Iommu.hits mmu);
  checki "misses" 3 (Nic.Iommu.misses mmu)

(* ---------- RSS ---------- *)

let flow i =
  ( Net.Ip_addr.of_int (0x0a000001 + i),
    Net.Ip_addr.of_int 0x0a000002,
    1000 + i,
    53 )

let test_rss_deterministic () =
  let rss = Nic.Rss.create ~queues:4 () in
  let src_ip, dst_ip, src_port, dst_port = flow 1 in
  let q1 = Nic.Rss.queue_for rss ~src_ip ~dst_ip ~src_port ~dst_port in
  let q2 = Nic.Rss.queue_for rss ~src_ip ~dst_ip ~src_port ~dst_port in
  checki "same flow same queue" q1 q2;
  checkb "in range" true (q1 >= 0 && q1 < 4)

let test_rss_spreads_flows () =
  let rss = Nic.Rss.create ~queues:4 () in
  let seen = Hashtbl.create 8 in
  for i = 0 to 255 do
    let src_ip, dst_ip, src_port, dst_port = flow i in
    Hashtbl.replace seen
      (Nic.Rss.queue_for rss ~src_ip ~dst_ip ~src_port ~dst_port)
      ()
  done;
  checki "all queues used" 4 (Hashtbl.length seen)

let test_rss_key_dependence () =
  let a = Nic.Rss.create ~queues:64 () in
  let b = Nic.Rss.create ~key:(String.make 40 '\x55') ~queues:64 () in
  let src_ip, dst_ip, src_port, dst_port = flow 3 in
  let ha = Nic.Rss.hash_flow a ~src_ip ~dst_ip ~src_port ~dst_port in
  let hb = Nic.Rss.hash_flow b ~src_ip ~dst_ip ~src_port ~dst_port in
  checkb "different keys differ" true (ha <> hb)

let test_toeplitz_zero_input () =
  checki "zero input hashes to 0" 0
    (Nic.Rss.toeplitz_hash ~key:Nic.Rss.default_key (Bytes.make 12 '\000'))

(* Microsoft's RSS verification suite, IPv4 under the default key:
   (src, src port, dst, dst port, hash of the 8 B address pair, hash of
   the 12 B tuple with ports). *)
let rss_vectors =
  [
    ("66.9.149.187", 2794, "161.142.100.80", 1766, 0x323e8fc2, 0x51ccc178);
    ("199.92.111.2", 14230, "65.69.140.83", 4739, 0xd718262a, 0xc626b0ea);
    ("24.19.198.95", 12898, "12.22.207.184", 38024, 0xd2d0a5de, 0x5c2b394a);
    ("38.27.205.30", 48228, "209.142.163.6", 2217, 0x82989176, 0xafc7327f);
    ("153.39.163.191", 44251, "202.188.127.2", 1303, 0x5d1809c5, 0x10e828a2);
  ]

let test_rss_known_answers () =
  let rss = Nic.Rss.create ~queues:8 () in
  List.iter
    (fun (src, sp, dst, dp, h_ip, h_tuple) ->
      let src_ip = Net.Ip_addr.of_string src
      and dst_ip = Net.Ip_addr.of_string dst in
      let b = Bytes.create 12 in
      Bytes.set_int32_be b 0 (Int32.of_int (Net.Ip_addr.to_int src_ip));
      Bytes.set_int32_be b 4 (Int32.of_int (Net.Ip_addr.to_int dst_ip));
      Bytes.set_uint16_be b 8 sp;
      Bytes.set_uint16_be b 10 dp;
      let name what = Printf.sprintf "%s:%d -> %s:%d %s" src sp dst dp what in
      let reference b = Nic.Rss.toeplitz_hash ~key:Nic.Rss.default_key b in
      checki (name "reference, ip") h_ip (reference (Bytes.sub b 0 8));
      checki (name "reference, tuple") h_tuple (reference b);
      checki (name "table, ip") h_ip (Nic.Rss.hash_sub b 8);
      checki (name "table, tuple") h_tuple (Nic.Rss.hash b);
      checki (name "hash_flow") h_tuple
        (Nic.Rss.hash_flow rss ~src_ip ~dst_ip ~src_port:sp ~dst_port:dp))
    rss_vectors

let bytes_gen ~lo ~hi =
  QCheck.Gen.(map Bytes.of_string (string_size ~gen:char (int_range lo hi)))

let rss_table_matches_reference =
  QCheck.Test.make ~name:"table hash = bit-serial Toeplitz, any key"
    ~count:500
    (QCheck.make
       ~print:(fun (k, d) ->
         Printf.sprintf "key %S data %S" (Bytes.to_string k) (Bytes.to_string d))
       QCheck.Gen.(pair (bytes_gen ~lo:40 ~hi:56) (bytes_gen ~lo:0 ~hi:64)))
    (fun (key, data) ->
      let key = Bytes.to_string key in
      let t = Nic.Rss.create ~key ~queues:1 () in
      Nic.Rss.hash_bytes t data = Nic.Rss.toeplitz_hash ~key data)

let rss_hash_sub_is_sub =
  QCheck.Test.make ~name:"hash_sub b n = hash (Bytes.sub b 0 n)" ~count:500
    (QCheck.make
       ~print:(fun (b, n) -> Printf.sprintf "%S, %d" (Bytes.to_string b) n)
       QCheck.Gen.(
         bytes_gen ~lo:0 ~hi:64 >>= fun b ->
         map (fun n -> (b, n)) (int_bound (Bytes.length b))))
    (fun (b, n) -> Nic.Rss.hash_sub b n = Nic.Rss.hash (Bytes.sub b 0 n))

(* Bytes allocated by [n] calls of [f], with a minor collection at both
   ends so the count is exact rather than quantised to minor-heap
   segments. *)
let allocated_bytes n f =
  for _ = 1 to 100 do f () done (* warm-up *);
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  for _ = 1 to n do f () done;
  Gc.minor ();
  Gc.allocated_bytes () -. before

let test_per_frame_path_allocates_nothing () =
  let n = 10_000 in
  (* the smallest heap block is 16 B, so n calls that allocated at all
     would show at least 16 n bytes; the slack of under a byte per call
     only covers the measurement's own boxed floats *)
  let slack = float_of_int n /. 10. in
  let check_zero what f =
    let bytes = allocated_bytes n f in
    checkb
      (Printf.sprintf "%s: %.0f bytes over %d calls" what bytes n)
      true (bytes <= slack)
  in
  let rss = Nic.Rss.create ~queues:8 () in
  let ep last =
    {
      Net.Frame.mac = Net.Mac_addr.of_int64 (Int64.of_int last);
      ip = Net.Ip_addr.of_int (0x0a000000 + last);
      port = 1000 + last;
    }
  in
  let frame = Net.Frame.make ~src:(ep 1) ~dst:(ep 2) (Bytes.make 64 'p') in
  let sink = ref 0 in
  check_zero "Rss.queue_of_frame" (fun () ->
      sink := !sink + Nic.Rss.queue_of_frame rss frame);
  let key = Bytes.make 12 'k' in
  check_zero "Rss.hash_sub" (fun () -> sink := !sink + Nic.Rss.hash_sub key 12);
  List.iter
    (fun (what, prog) ->
      let decide = Nic.Steer.compile ~rss:(Nic.Rss.queue_of_frame rss) prog in
      check_zero what (fun () -> sink := !sink + decide frame))
    [
      ("compiled rss_all", Nic.Steer.rss_all);
      ( "compiled key_affinity",
        Nic.Steer.key_affinity ~key_off:0 ~key_len:4 ~lanes:8 () );
    ];
  let mmu = Nic.Iommu.create ~iotlb_entries:4 () in
  Nic.Iommu.map mmu ~iova:0 ~len:(16 * 4096);
  (* a ring walk over 16 pages through a 4-entry IOTLB: hits and misses *)
  let i = ref 0 in
  check_zero "Iommu.translate" (fun () ->
      sink := !sink + Nic.Iommu.translate mmu ~iova:(!i * 2048 mod (16 * 4096));
      incr i);
  check_zero "Iommu.translate_opt" (fun () ->
      (match Nic.Iommu.translate_opt mmu ~iova:(!i * 2048 mod (16 * 4096)) with
      | Some c -> sink := !sink + c
      | None -> ());
      incr i);
  checkb "IOTLB both hit and missed" true
    (Nic.Iommu.hits mmu > 0 && Nic.Iommu.misses mmu > 0);
  ignore (Sys.opaque_identity !sink)

(* ---------- MSI-X ---------- *)

let test_msix_immediate_then_moderated () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let m =
    Nic.Msix.create e ~min_interval:(Sim.Units.us 10)
      ~fire:(fun () -> fired := Sim.Engine.now e :: !fired)
      ()
  in
  Nic.Msix.raise_event m (* t=0: immediate *);
  ignore
    (Sim.Engine.schedule_after e ~after:(Sim.Units.us 2) (fun () ->
         Nic.Msix.raise_event m (* absorbed *)));
  ignore
    (Sim.Engine.schedule_after e ~after:(Sim.Units.us 3) (fun () ->
         Nic.Msix.raise_event m (* absorbed *)));
  Sim.Engine.run e;
  check
    (Alcotest.list Alcotest.int)
    "one immediate + one trailing"
    [ 0; Sim.Units.us 10 ]
    (List.rev !fired);
  checki "suppressed" 2 (Nic.Msix.suppressed m)

let test_msix_mask_latches () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  let m =
    Nic.Msix.create e ~min_interval:0 ~fire:(fun () -> incr fired) ()
  in
  Nic.Msix.mask m;
  Nic.Msix.raise_event m;
  Nic.Msix.raise_event m;
  Sim.Engine.run e;
  checki "masked: nothing" 0 !fired;
  Nic.Msix.unmask m;
  Sim.Engine.run e;
  checki "pending delivered once" 1 !fired

(* ---------- DMA NIC ---------- *)

let sample_frame ?(dst_port = 53) () =
  let src =
    {
      Net.Frame.mac = Net.Mac_addr.of_string "02:00:00:00:00:0a";
      ip = Net.Ip_addr.of_string "10.0.0.10";
      port = 5555;
    }
  in
  let dst =
    {
      Net.Frame.mac = Net.Mac_addr.of_string "02:00:00:00:00:01";
      ip = Net.Ip_addr.of_string "10.0.0.1";
      port = dst_port;
    }
  in
  Net.Frame.make ~src ~dst (Bytes.make 64 'x')

let test_dma_nic_rx_to_ring_and_interrupt () =
  let e = Sim.Engine.create () in
  let irqs = ref [] in
  let nic =
    Nic.Dma_nic.create e Coherence.Interconnect.pcie_modern
      ~config:{ Nic.Dma_nic.default_config with Nic.Dma_nic.coalesce_interval = 0 }
      ~on_rx_interrupt:(fun ~queue -> irqs := queue :: !irqs)
      ()
  in
  Nic.Dma_nic.rx_from_wire nic (sample_frame ());
  Sim.Engine.run e;
  checki "one interrupt" 1 (List.length !irqs);
  let q = List.hd !irqs in
  (match Nic.Dma_nic.consume nic ~queue:q Net.Frame.of_view with
  | Some f -> checki "payload survives" 64 (Bytes.length f.Net.Frame.payload)
  | None -> Alcotest.fail "ring empty");
  checki "delivered" 1 (Nic.Dma_nic.rx_delivered nic);
  checkb "dma delay nonzero" true (Sim.Engine.now e > 0)

let test_dma_nic_steering_override () =
  let e = Sim.Engine.create () in
  let nic =
    Nic.Dma_nic.create e Coherence.Interconnect.pcie_modern
      ~config:{ Nic.Dma_nic.default_config with Nic.Dma_nic.coalesce_interval = 0 }
      ~on_rx_interrupt:(fun ~queue:_ -> ())
      ()
  in
  Nic.Dma_nic.set_steering nic (fun f -> f.Net.Frame.udp.Net.Udp.dst_port);
  Nic.Dma_nic.rx_from_wire nic (sample_frame ~dst_port:2 ());
  Sim.Engine.run e;
  checki "steered to queue 2" 1
    (Nic.Ring.occupancy (Nic.Dma_nic.rx_ring nic ~queue:2))

let test_dma_nic_transmit_delay () =
  let e = Sim.Engine.create () in
  let nic =
    Nic.Dma_nic.create e Coherence.Interconnect.pcie_modern
      ~on_rx_interrupt:(fun ~queue:_ -> ())
      ()
  in
  let sent_at = ref (-1) in
  Nic.Dma_nic.transmit nic (sample_frame ()) ~via:(fun _ ->
      sent_at := Sim.Engine.now e);
  Sim.Engine.run e;
  checkb "tx has dma latency" true
    (!sent_at
    >= Coherence.Interconnect.pcie_modern.Coherence.Interconnect.dma_read)

(* Overflow a tiny RX ring: the excess frames are counted tail drops
   and their pooled buffers are released on the spot — after draining,
   the pool balances (acquired = released, nothing outstanding). *)
let test_dma_nic_ring_overflow_no_leak () =
  let e = Sim.Engine.create () in
  let nic =
    Nic.Dma_nic.create e Coherence.Interconnect.pcie_modern
      ~config:
        {
          Nic.Dma_nic.default_config with
          Nic.Dma_nic.nqueues = 1;
          ring_size = 4;
          coalesce_interval = 0;
        }
      ~on_rx_interrupt:(fun ~queue:_ -> ())
      ()
  in
  for _ = 1 to 10 do
    Nic.Dma_nic.rx_from_wire nic (sample_frame ())
  done;
  Sim.Engine.run e;
  let pool = Nic.Dma_nic.pool nic in
  checki "tail drops counted" 6 (Nic.Dma_nic.rx_dropped nic);
  checki "only ring occupants outstanding" 4 (Net.Pool.outstanding pool);
  let rec drain n =
    match Nic.Dma_nic.consume nic ~queue:0 Net.Frame.of_view with
    | Some _ -> drain (n + 1)
    | None -> n
  in
  checki "ring held its capacity" 4 (drain 0);
  checki "no leaked buffers" 0 (Net.Pool.outstanding pool);
  checki "acquired = released" (Net.Pool.acquired pool)
    (Net.Pool.released pool)

(* With the NIC fault stage corrupting every DMA'd frame, the
   driver-side parse rejects each descriptor: consume skips them all
   (returning None, so a poller never stalls on a bad head), counts
   them, and releases their buffers. *)
let test_dma_nic_corrupt_descriptors_skipped () =
  let e = Sim.Engine.create () in
  let plan =
    Fault.Plan.make ~seed:1 ~nic:(Fault.Plan.link ~corrupt:1.0 ()) ()
  in
  let nic =
    Nic.Dma_nic.create e Coherence.Interconnect.pcie_modern
      ~config:
        {
          Nic.Dma_nic.default_config with
          Nic.Dma_nic.nqueues = 1;
          coalesce_interval = 0;
        }
      ~fault:plan
      ~on_rx_interrupt:(fun ~queue:_ -> ())
      ()
  in
  for _ = 1 to 5 do
    Nic.Dma_nic.rx_from_wire nic (sample_frame ())
  done;
  Sim.Engine.run e;
  (match Nic.Dma_nic.consume nic ~queue:0 Net.Frame.of_view with
  | Some _ -> Alcotest.fail "a corrupted descriptor parsed successfully"
  | None -> ());
  checki "all descriptors rejected" 5 (Nic.Dma_nic.rx_corrupt_dropped nic);
  checki "no leaked buffers" 0 (Net.Pool.outstanding (Nic.Dma_nic.pool nic))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "nic"
    [
      ( "ring",
        [
          Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "full drops" `Quick test_ring_full_drops;
          Alcotest.test_case "size validation" `Quick
            test_ring_size_validation;
          Alcotest.test_case "notify" `Quick test_ring_notify;
        ]
        @ qsuite [ ring_fifo_property ] );
      ( "iommu",
        [
          Alcotest.test_case "hit/miss/fault" `Quick test_iommu_hit_miss_fault;
          Alcotest.test_case "lru eviction" `Quick test_iommu_lru_eviction;
          Alcotest.test_case "unmap" `Quick test_iommu_unmap;
          Alcotest.test_case "single entry + unmap" `Quick
            test_iommu_single_entry_unmap;
        ]
        @ qsuite [ iommu_matches_lru_model ] );
      ( "rss",
        [
          Alcotest.test_case "deterministic" `Quick test_rss_deterministic;
          Alcotest.test_case "spreads flows" `Quick test_rss_spreads_flows;
          Alcotest.test_case "key dependence" `Quick test_rss_key_dependence;
          Alcotest.test_case "toeplitz zero input" `Quick
            test_toeplitz_zero_input;
          Alcotest.test_case "known answers" `Quick test_rss_known_answers;
          Alcotest.test_case "per-frame path allocates nothing" `Quick
            test_per_frame_path_allocates_nothing;
        ]
        @ qsuite [ rss_table_matches_reference; rss_hash_sub_is_sub ] );
      ( "msix",
        [
          Alcotest.test_case "moderation" `Quick
            test_msix_immediate_then_moderated;
          Alcotest.test_case "mask latches" `Quick test_msix_mask_latches;
        ] );
      ( "dma_nic",
        [
          Alcotest.test_case "rx to ring + interrupt" `Quick
            test_dma_nic_rx_to_ring_and_interrupt;
          Alcotest.test_case "steering override" `Quick
            test_dma_nic_steering_override;
          Alcotest.test_case "transmit delay" `Quick
            test_dma_nic_transmit_delay;
          Alcotest.test_case "ring overflow releases buffers" `Quick
            test_dma_nic_ring_overflow_no_leak;
          Alcotest.test_case "corrupt descriptors skipped" `Quick
            test_dma_nic_corrupt_descriptors_skipped;
        ] );
    ]
