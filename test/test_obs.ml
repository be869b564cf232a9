(* The observability layer: span well-formedness under arbitrary
   emission sequences, the exact stage-attribution invariant on real
   stacks, pcap/JSON export roundtrips, and the metrics registry's
   typing rules. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* --- JSON ---------------------------------------------------------- *)

let test_json_parse () =
  let doc = {| {"a": 1, "b": [true, null, -2.5e1], "c": "x\n\u0041"} |} in
  match Obs.Json.parse doc with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v ->
      checkb "a is Int" true (Obs.Json.member "a" v = Some (Obs.Json.Int 1));
      checkb "b.2 is Float" true
        (Obs.Json.member "b" v
        = Some
            (Obs.Json.List
               [ Obs.Json.Bool true; Obs.Json.Null; Obs.Json.Float (-25.) ]));
      checkb "escapes decode" true
        (Obs.Json.member "c" v = Some (Obs.Json.Str "x\nA"));
      checkb "roundtrip" true
        (Obs.Json.parse (Obs.Json.to_string v) = Ok v)

let test_json_rejects () =
  let bad doc =
    match Obs.Json.parse doc with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted invalid document %S" doc
  in
  bad "{} x";           (* trailing garbage *)
  bad "{\"a\":}";       (* missing value *)
  bad "{'a': 1}";       (* unquoted-style key *)
  bad "[1,]";           (* trailing comma *)
  bad "nan";            (* not a JSON literal *)
  bad "01";             (* leading zero *)
  bad "\"\\q\"";        (* bad escape *)
  bad ""

(* A sized generator of JSON documents (finite floats only — the
   writer refuses NaN/infinity by design). *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Obs.Json.Null;
        map (fun b -> Obs.Json.Bool b) bool;
        map (fun i -> Obs.Json.Int i) (int_range (-1_000_000) 1_000_000);
        map
          (fun i -> Obs.Json.Float (float_of_int i /. 64.))
          (int_range (-100_000) 100_000);
        map (fun s -> Obs.Json.Str s) (string_size ~gen:printable (0 -- 12));
      ]
  in
  let key = string_size ~gen:printable (0 -- 8) in
  sized
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           frequency
             [
               (2, scalar);
               ( 1,
                 map
                   (fun l -> Obs.Json.List l)
                   (list_size (0 -- 4) (self (n / 2))) );
               ( 1,
                 map
                   (fun l -> Obs.Json.Obj l)
                   (list_size (0 -- 4) (pair key (self (n / 2)))) );
             ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"JSON print/parse roundtrip"
    (QCheck.make json_gen) (fun doc ->
      match Obs.Json.parse (Obs.Json.to_string doc) with
      | Ok v -> Obs.Json.equal v doc
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e)

(* --- spans: well-formedness under arbitrary emission --------------- *)

(* Random op sequences against the tracer itself: whatever order the
   stacks call in (retransmits re-beginning an id, stages for unknown
   ids, instants without an RPC), the span table must stay well
   formed. *)
let ops_gen =
  QCheck.Gen.(
    list_size (0 -- 120) (triple (0 -- 4) (1 -- 3) (0 -- 100)))

let apply_ops ops =
  let tr = Obs.Tracer.create () in
  Obs.Tracer.enable tr;
  let trk = Obs.Tracer.track tr "t" in
  let now = ref 0 in
  List.iter
    (fun (op, rid, dt) ->
      now := !now + dt;
      let rpc = Int64.of_int rid in
      match op with
      | 0 -> Obs.Tracer.rpc_begin tr ~rpc ~track:trk !now
      | 1 -> Obs.Tracer.stage tr ~rpc ~track:trk ~name:"s" !now
      | 2 ->
          Obs.Tracer.detail tr ~rpc ~track:trk ~name:"d"
            ~start:(max 0 (!now - 5)) ~stop:!now
      | 3 -> Obs.Tracer.instant tr ~rpc ~track:trk ~name:"i" !now
      | _ -> Obs.Tracer.rpc_end tr ~rpc !now)
    ops;
  tr

let well_formed tr =
  let spans = Obs.Tracer.spans tr in
  let tbl = Hashtbl.create 64 in
  List.iter (fun (s : Obs.Span.t) -> Hashtbl.replace tbl s.Obs.Span.id s) spans;
  let ok = ref true in
  let fail fmt = Printf.ksprintf (fun _ -> ok := false) fmt in
  ignore
    (List.fold_left
       (fun prev_seq (s : Obs.Span.t) ->
         if s.Obs.Span.seq <= prev_seq then fail "seq not monotone";
         if Obs.Span.is_closed s && s.Obs.Span.end_time < s.Obs.Span.start_time
         then fail "negative interval";
         (if s.Obs.Span.parent <> Obs.Span.no_parent then
            match Hashtbl.find_opt tbl s.Obs.Span.parent with
            | None -> fail "dangling parent"
            | Some p ->
                if p.Obs.Span.id >= s.Obs.Span.id then
                  fail "parent emitted after child";
                if p.Obs.Span.trace_id <> s.Obs.Span.trace_id then
                  fail "parent on a different RPC");
         s.Obs.Span.seq)
       (-1) spans);
  (* Per-RPC: the latest completed chain telescopes — contiguous
     stages starting at the root's start, ending inside the root. *)
  List.iter
    (fun rid ->
      let rpc = Int64.of_int rid in
      match Obs.Tracer.stages_of tr ~rpc with
      | [] -> ()
      | first :: _ as chain ->
          let root =
            Hashtbl.find tbl (List.hd chain).Obs.Span.parent
          in
          if first.Obs.Span.start_time <> root.Obs.Span.start_time then
            fail "chain does not start at root";
          ignore
            (List.fold_left
               (fun cursor (s : Obs.Span.t) ->
                 if s.Obs.Span.start_time <> cursor then
                   fail "chain not contiguous";
                 if
                   Obs.Span.is_closed root
                   && s.Obs.Span.end_time > root.Obs.Span.end_time
                 then fail "stage escapes root";
                 s.Obs.Span.end_time)
               first.Obs.Span.start_time chain))
    [ 1; 2; 3 ];
  !ok

let prop_span_well_formed =
  QCheck.Test.make ~count:300 ~name:"spans well-formed under random emission"
    (QCheck.make ops_gen) (fun ops -> well_formed (apply_ops ops))

let prop_export_valid_json =
  QCheck.Test.make ~count:100
    ~name:"trace export is strict JSON for any span table"
    (QCheck.make ops_gen) (fun ops ->
      let tr = apply_ops ops in
      let json = Obs.Export.trace_events tr in
      match Obs.Json.parse (Obs.Json.to_string json) with
      | Ok v -> Obs.Json.equal v json
      | Error e -> QCheck.Test.fail_reportf "export reparse failed: %s" e)

let test_disabled_emits_nothing () =
  let tr = Obs.Tracer.create () in
  let trk = Obs.Tracer.track tr "t" in
  Obs.Tracer.rpc_begin tr ~rpc:1L ~track:trk 0;
  Obs.Tracer.stage tr ~rpc:1L ~track:trk ~name:"s" 10;
  Obs.Tracer.rpc_end tr ~rpc:1L 20;
  checki "no spans while disabled" 0 (Obs.Tracer.span_count tr);
  Obs.Tracer.enable tr;
  Obs.Tracer.stage tr ~rpc:1L ~track:trk ~name:"s" 30;
  checki "no cursor carried over from disabled begin" 0
    (Obs.Tracer.span_count tr)

(* --- pcap ---------------------------------------------------------- *)

let endpoint mac ip port =
  {
    Net.Frame.mac = Net.Mac_addr.of_int64 (Int64.of_int mac);
    ip = Net.Ip_addr.of_int ip;
    port;
  }

let frames_gen =
  QCheck.Gen.(
    list_size (1 -- 40) (triple (0 -- 1_000_000) (0 -- 1400) printable))

let prop_pcap_roundtrip =
  QCheck.Test.make ~count:100 ~name:"pcap roundtrip preserves every frame"
    (QCheck.make frames_gen) (fun specs ->
      let pcap = Obs.Pcap.create () in
      let src = endpoint 0x1111 0x0a000001 7000 in
      let dst = endpoint 0x2222 0x0a000002 7001 in
      let expected =
        List.mapi
          (fun i (dt, size, fill) ->
            let payload = Bytes.make size fill in
            let frame = Net.Frame.make ~src ~dst payload in
            let time = (i * 1_000_000) + dt in
            Obs.Pcap.add_frame pcap ~time frame;
            (time, payload))
          specs
      in
      match Obs.Pcap.records (Obs.Pcap.to_bytes pcap) with
      | Error e -> QCheck.Test.fail_reportf "pcap reparse failed: %s" e
      | Ok recs ->
          List.length recs = List.length expected
          && List.for_all2
               (fun (time, payload) (time', slice) ->
                 time = time'
                 &&
                 match Net.Frame.parse_slice slice with
                 | Error _ -> false
                 | Ok view ->
                     Bytes.equal (Net.Frame.of_view view).Net.Frame.payload
                       payload)
               expected recs)

let test_pcap_rejects_truncation () =
  let pcap = Obs.Pcap.create () in
  let src = endpoint 1 2 3 and dst = endpoint 4 5 6 in
  Obs.Pcap.add_frame pcap ~time:42 (Net.Frame.make ~src ~dst (Bytes.create 64));
  let whole = Obs.Pcap.to_bytes pcap in
  checkb "whole capture parses" true
    (Result.is_ok (Obs.Pcap.records whole));
  let cut = Bytes.sub whole 0 (Bytes.length whole - 3) in
  checkb "truncated capture rejected" true
    (Result.is_error (Obs.Pcap.records cut));
  Bytes.set_int32_le whole 0 0l;
  checkb "bad magic rejected" true (Result.is_error (Obs.Pcap.records whole))

(* E14 re-reads its captures with [Obs.Pcap.records], so the reader
   must be total: any bytes give [Ok] or [Error], and every record of
   an [Ok] re-parses (to [Ok] or [Error]) without raising. Each case
   checks arbitrary bytes (0-300 B), the same bytes behind a valid
   global header, and a truncation and a byte-flipped copy of a valid
   capture. *)
let prop_pcap_records_total =
  QCheck.Test.make ~count:500 ~name:"pcap records never raises"
    QCheck.(
      triple
        (string_of_size Gen.(0 -- 300))
        (pair (small_list (int_bound 200)) (int_bound 100_000))
        (small_list (pair (int_bound 100_000) (int_bound 255))))
    (fun (junk, (sizes, cut), flips) ->
      let pcap = Obs.Pcap.create () in
      let src = endpoint 1 2 3 and dst = endpoint 4 5 6 in
      List.iteri
        (fun i size ->
          Obs.Pcap.add_frame pcap ~time:(i * 1_000)
            (Net.Frame.make ~src ~dst (Bytes.make size 'p')))
        sizes;
      let valid = Obs.Pcap.to_bytes pcap in
      let n = Bytes.length valid in
      let flipped = Bytes.copy valid in
      List.iter
        (fun (pos, x) ->
          let i = pos mod n in
          Bytes.set flipped i
            (Char.chr (Char.code (Bytes.get flipped i) lxor (x lor 1))))
        flips;
      let behind_header =
        Bytes.cat (Bytes.sub valid 0 24) (Bytes.of_string junk)
      in
      List.for_all
        (fun b ->
          match Obs.Pcap.records b with
          | Error _ -> true
          | Ok recs ->
              List.for_all
                (fun (_, slice) ->
                  match Net.Frame.parse_slice slice with
                  | Ok _ | Error _ -> true)
                recs
          | exception e ->
              QCheck.Test.fail_reportf "records %S raised %s"
                (Bytes.to_string b) (Printexc.to_string e))
        [
          Bytes.of_string junk;
          behind_header;
          Bytes.sub valid 0 (cut mod (n + 1));
          flipped;
        ])

(* --- metrics ------------------------------------------------------- *)

let test_metrics_registry () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "events" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  checki "counter accumulates" 5 (Obs.Metrics.value c);
  checki "find-or-create shares state" 5
    (Obs.Metrics.value (Obs.Metrics.counter m "events"));
  checki "counter_value by name" 5 (Obs.Metrics.counter_value m "events");
  checki "unregistered name reads 0" 0 (Obs.Metrics.counter_value m "ghost");
  let g = Obs.Metrics.gauge m "depth" in
  Obs.Metrics.set g 7;
  let backing = ref 11 in
  Obs.Metrics.derive m "derived" (fun () -> !backing);
  ignore (Obs.Metrics.counter m "zero");
  checkb "to_list drops zeros, sorts, samples derived" true
    (Obs.Metrics.to_list m
    = [ ("depth", 7); ("derived", 11); ("events", 5) ]);
  backing := 13;
  checkb "derived gauges resample at export" true
    (List.assoc "derived" (Obs.Metrics.to_list m) = 13);
  checkb "keep_zero keeps the zero counter" true
    (List.mem_assoc "zero" (Obs.Metrics.to_list ~keep_zero:true m));
  checkb "counters_list is counters only" true
    (Obs.Metrics.counters_list m = [ ("events", 5) ]);
  (match Obs.Metrics.to_json m with
  | Obs.Json.Obj fields ->
      checkb "json is sorted by name" true
        (List.map fst fields = List.sort compare (List.map fst fields))
  | _ -> Alcotest.fail "metrics json is not an object");
  checkb "kind clash raises" true
    (try
       ignore (Obs.Metrics.gauge m "events");
       false
     with Invalid_argument _ -> true)

(* --- cross-fabric trace context ------------------------------------ *)

let test_context_roundtrip () =
  let ctx =
    { Obs.Context.trace = 0x1122334455667788L; parent = 42; origin = 9 }
  in
  let b = Obs.Context.to_bytes ctx in
  checki "encodes to Context.size bytes" Obs.Context.size (Bytes.length b);
  (match Obs.Context.of_bytes b with
  | Some c ->
      checkb "roundtrips" true
        (Int64.equal c.Obs.Context.trace ctx.Obs.Context.trace
        && c.Obs.Context.parent = ctx.Obs.Context.parent
        && c.Obs.Context.origin = ctx.Obs.Context.origin)
  | None -> Alcotest.fail "of_bytes rejected its own encoding");
  checkb "wrong length rejected" true
    (Obs.Context.of_bytes (Bytes.create (Obs.Context.size - 1)) = None);
  checkb "out-of-range parent rejected" true
    (try
       ignore (Obs.Context.to_bytes { ctx with Obs.Context.parent = -1 });
       false
     with Invalid_argument _ -> true);
  checkb "out-of-range origin rejected" true
    (try
       ignore
         (Obs.Context.to_bytes { ctx with Obs.Context.origin = 0x1_0000_0000 });
       false
     with Invalid_argument _ -> true)

let test_wire_ctx () =
  let ctx =
    Obs.Context.to_bytes { Obs.Context.trace = 7L; parent = 3; origin = 8 }
  in
  let plain =
    Rpc.Wire_format.request ~rpc_id:7L ~service_id:2 ~method_id:1
      (Rpc.Value.Blob (Bytes.make 16 'q'))
  in
  let tagged = Rpc.Wire_format.with_ctx plain (Some ctx) in
  let enc_plain = Rpc.Wire_format.encode plain in
  let enc_tagged = Rpc.Wire_format.encode tagged in
  checki "context adds exactly ctx_size bytes" Rpc.Wire_format.ctx_size
    (Bytes.length enc_tagged - Bytes.length enc_plain);
  (* byte 3 is the kind tag; bit 7 is the context flag. A message
     without a context must encode exactly as it did before the
     extension existed. *)
  checkb "no-context kind byte is flagless" true
    (Char.code (Bytes.get enc_plain 3) land 0x80 = 0);
  checkb "context rides the kind-byte flag" true
    (Char.code (Bytes.get enc_tagged 3) land 0x80 <> 0);
  checkb "stripping the context restores the original bytes" true
    (Bytes.equal
       (Rpc.Wire_format.encode (Rpc.Wire_format.with_ctx tagged None))
       enc_plain);
  (match Rpc.Wire_format.decode enc_plain with
  | Ok m -> checkb "no-context decode has no ctx" true (m.Rpc.Wire_format.ctx = None)
  | Error _ -> Alcotest.fail "plain message failed to decode");
  (match Rpc.Wire_format.decode enc_tagged with
  | Ok m ->
      checkb "context decodes byte-identically" true
        (match m.Rpc.Wire_format.ctx with
        | Some c -> Bytes.equal c ctx
        | None -> false);
      checkb "body survives the context" true
        (Bytes.equal m.Rpc.Wire_format.body plain.Rpc.Wire_format.body);
      let rsp =
        Rpc.Wire_format.response ~of_:m (Rpc.Value.Blob (Bytes.make 4 'r'))
      in
      checkb "response echoes the request context" true
        (match rsp.Rpc.Wire_format.ctx with
        | Some c -> Bytes.equal c ctx
        | None -> false)
  | Error _ -> Alcotest.fail "tagged message failed to decode");
  let cut = Bytes.sub enc_tagged 0 (Rpc.Wire_format.header_size + 4) in
  checkb "truncated context is Truncated" true
    (match Rpc.Wire_format.decode cut with
    | Error Rpc.Wire_format.Truncated -> true
    | _ -> false)

(* --- skip_to / stage_until and post-run stitching ------------------ *)

let test_skip_to_stitching () =
  (* The root plane covers [0,10] and [30,40]; a host plane fills the
     skipped [10,30] on its own tracer against the same trace id;
     assemble proves the two chains tile the root exactly. *)
  let root = Obs.Tracer.create () and host = Obs.Tracer.create () in
  Obs.Tracer.enable root;
  Obs.Tracer.enable host;
  let rt = Obs.Tracer.track root "fabric" in
  let ht = Obs.Tracer.track host "stack" in
  Obs.Tracer.rpc_begin root ~rpc:5L ~track:rt 0;
  Obs.Tracer.stage root ~rpc:5L ~track:rt ~name:"wire_out" 10;
  Obs.Tracer.skip_to root ~rpc:5L 30;
  Obs.Tracer.stage_until root ~rpc:5L ~track:rt ~name:"wire_back" ~stop:40;
  Obs.Tracer.rpc_end root ~rpc:5L 40;
  Obs.Tracer.rpc_begin host ~rpc:5L ~track:ht 10;
  Obs.Tracer.stage host ~rpc:5L ~track:ht ~name:"serve" 30;
  Obs.Tracer.rpc_end host ~rpc:5L 30;
  (match Obs.Stitch.assemble ~root ~parts:[ ("h0", host) ] with
  | [ s ] ->
      checkb "exact" true (Obs.Stitch.exact s);
      checki "stage_sum is the end-to-end latency" 40 s.Obs.Stitch.stage_sum;
      checkb "stages interleave planes in time order" true
        (List.map
           (fun (st : Obs.Stitch.stage) ->
             (st.Obs.Stitch.plane, st.Obs.Stitch.span.Obs.Span.name))
           s.Obs.Stitch.stages
        = [ ("", "wire_out"); ("h0", "serve"); ("", "wire_back") ])
  | l -> Alcotest.failf "expected one stitched trace, got %d" (List.length l));
  (* A skip nothing fills is a visible gap, not a silent one. *)
  let root2 = Obs.Tracer.create () in
  Obs.Tracer.enable root2;
  let rt2 = Obs.Tracer.track root2 "fabric" in
  Obs.Tracer.rpc_begin root2 ~rpc:6L ~track:rt2 0;
  Obs.Tracer.stage root2 ~rpc:6L ~track:rt2 ~name:"a" 10;
  Obs.Tracer.skip_to root2 ~rpc:6L 30;
  Obs.Tracer.stage_until root2 ~rpc:6L ~track:rt2 ~name:"b" ~stop:40;
  Obs.Tracer.rpc_end root2 ~rpc:6L 40;
  match Obs.Stitch.assemble ~root:root2 ~parts:[] with
  | [ s ] ->
      checkb "unfilled skip breaks contiguity" false s.Obs.Stitch.contiguous;
      checkb "and therefore exactness" false (Obs.Stitch.exact s);
      checki "durations still sum without the gap" 20 s.Obs.Stitch.stage_sum
  | l -> Alcotest.failf "expected one stitched trace, got %d" (List.length l)

(* --- deterministic metrics aggregation ----------------------------- *)

let test_metrics_merge () =
  let a = Obs.Metrics.create () and b = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter a "reqs") 3;
  Obs.Metrics.add (Obs.Metrics.counter b "reqs") 4;
  Obs.Metrics.set (Obs.Metrics.gauge a "depth") 2;
  Obs.Metrics.set (Obs.Metrics.gauge b "depth") 5;
  let backing = ref 9 in
  Obs.Metrics.derive b "derived" (fun () -> !backing);
  Sim.Histogram.record (Obs.Metrics.histogram b "lat") 100;
  Obs.Metrics.merge_into ~src:b ~dst:a;
  checki "counters add" 7 (Obs.Metrics.counter_value a "reqs");
  checki "gauges add" 7
    (Obs.Metrics.gauge_value (Obs.Metrics.gauge a "depth"));
  checki "derived is sampled into a plain gauge" 9
    (List.assoc "derived" (Obs.Metrics.to_list a));
  backing := 100;
  checki "the merged sample does not track the source closure" 9
    (List.assoc "derived" (Obs.Metrics.to_list a));
  checki "histograms merge via Sim.Histogram" 1
    (Sim.Histogram.count (Obs.Metrics.histogram a "lat"));
  checkb "kind clash raises" true
    (try
       let c = Obs.Metrics.create () in
       ignore (Obs.Metrics.gauge c "reqs");
       Obs.Metrics.merge_into ~src:b ~dst:c;
       false
     with Invalid_argument _ -> true)

(* --- multi-plane export -------------------------------------------- *)

let test_multi_export () =
  let planes =
    List.map
      (fun (label, rpc) ->
        let tr = Obs.Tracer.create () in
        Obs.Tracer.enable tr;
        let trk = Obs.Tracer.track tr label in
        Obs.Tracer.rpc_begin tr ~rpc ~track:trk 0;
        Obs.Tracer.stage tr ~rpc ~track:trk ~name:"s" 5;
        Obs.Tracer.rpc_end tr ~rpc 5;
        (label, tr))
      [ ("fabric", 1L); ("host0", 1L); ("host1", 2L) ]
  in
  let json = Obs.Export.multi_trace_events planes in
  (match Obs.Json.parse (Obs.Json.to_string json) with
  | Error e -> Alcotest.failf "multi export reparse failed: %s" e
  | Ok v -> checkb "multi export is strict JSON" true (Obs.Json.equal v json));
  match Obs.Json.member "traceEvents" json with
  | Some (Obs.Json.List evs) ->
      let pids =
        List.sort_uniq compare
          (List.filter_map (fun e -> Obs.Json.member "pid" e) evs)
      in
      checkb "one pid per plane, in list order" true
        (pids = [ Obs.Json.Int 1; Obs.Json.Int 2; Obs.Json.Int 3 ])
  | _ -> Alcotest.fail "export has no traceEvents array"

(* --- the attribution invariant on real stacks ---------------------- *)

(* E14's core claim as a test: on every flavour, with tracing enabled,
   each completed RPC's stage durations sum EXACTLY to the recorder's
   end-system latency, and both exporters roundtrip. *)
let test_attribution flavour () =
  let server, pcap, completions = Experiments.Trace.traced_ping_pong flavour in
  let tracer = server.Experiments.Common.tracer in
  checki "all RPCs completed" Experiments.Trace.rtts
    (List.length completions);
  checki "every stage chain sums to the measured latency" 0
    (Experiments.Trace.exact_sum_check tracer completions);
  checki "one closed root per RPC" (List.length completions)
    (List.length (Obs.Tracer.roots tracer));
  (match Obs.Pcap.records (Obs.Pcap.to_bytes pcap) with
  | Error e -> Alcotest.failf "pcap reparse failed: %s" e
  | Ok recs ->
      checki "request + response captured per RPC"
        (2 * List.length completions)
        (List.length recs);
      checkb "every captured frame re-parses" true
        (List.for_all
           (fun (_, slice) -> Result.is_ok (Net.Frame.parse_slice slice))
           recs));
  let json = Obs.Export.trace_events tracer in
  match Obs.Json.parse (Obs.Json.to_string json) with
  | Error e -> Alcotest.failf "export reparse failed: %s" e
  | Ok v -> checkb "export is strict JSON" true (Obs.Json.equal v json)

let test_disabled_tracer_stays_empty () =
  (* The default: no tracing, no spans, zero behavioural change. *)
  let setup = Workload.Scenario.echo_fleet ~n:1 () in
  let server =
    Experiments.Common.make_server ~ncores:4
      (Experiments.Common.Linux Coherence.Interconnect.pcie_enzian)
      setup
  in
  Experiments.Common.inject_blob server ~seq:1 ~service_idx:0 ~bytes:64;
  Sim.Engine.run server.Experiments.Common.engine ~until:(Sim.Units.ms 10);
  checki "completed" 1
    (Harness.Recorder.completed server.Experiments.Common.recorder);
  checki "no spans recorded" 0
    (Obs.Tracer.span_count server.Experiments.Common.tracer);
  checks "tracks registered even while disabled" "linux"
    (Obs.Tracer.track_name server.Experiments.Common.tracer 0)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "obs"
    [
      ( "json",
        Alcotest.test_case "parses strict documents" `Quick test_json_parse
        :: Alcotest.test_case "rejects almost-JSON" `Quick test_json_rejects
        :: qsuite [ prop_json_roundtrip ] );
      ( "spans",
        Alcotest.test_case "disabled tracer emits nothing" `Quick
          test_disabled_emits_nothing
        :: qsuite [ prop_span_well_formed; prop_export_valid_json ] );
      ( "pcap",
        Alcotest.test_case "rejects truncation and bad magic" `Quick
          test_pcap_rejects_truncation
        :: qsuite [ prop_pcap_roundtrip; prop_pcap_records_total ] );
      ( "metrics",
        [
          Alcotest.test_case "registry semantics" `Quick test_metrics_registry;
          Alcotest.test_case "deterministic merge" `Quick test_metrics_merge;
        ] );
      ( "context",
        [
          Alcotest.test_case "context bytes roundtrip" `Quick
            test_context_roundtrip;
          Alcotest.test_case "wire extension is compatible" `Quick
            test_wire_ctx;
          Alcotest.test_case "skip_to stitches across planes" `Quick
            test_skip_to_stitching;
          Alcotest.test_case "multi-plane export" `Quick test_multi_export;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "lauberhorn stages sum exactly" `Quick
            (test_attribution
               (Experiments.Common.Lauberhorn
                  (Lauberhorn.Config.enzian, Lauberhorn.Sched_mirror.Push)));
          Alcotest.test_case "static stages sum exactly" `Quick
            (test_attribution
               (Experiments.Common.Static Lauberhorn.Config.enzian));
          Alcotest.test_case "linux stages sum exactly" `Quick
            (test_attribution
               (Experiments.Common.Linux Coherence.Interconnect.pcie_enzian));
          Alcotest.test_case "bypass stages sum exactly" `Quick
            (test_attribution
               (Experiments.Common.Bypass Coherence.Interconnect.pcie_enzian));
          Alcotest.test_case "tracing off leaves no trace" `Quick
            test_disabled_tracer_stays_empty;
        ] );
    ]
