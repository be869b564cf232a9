(* Tests for the RPC framework: values, schemas, the wire codec, the
   RPC header, service interfaces, deserialization cost model, and
   reply continuations. *)

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let value_testable =
  Alcotest.testable Rpc.Value.pp Rpc.Value.equal

(* ---------- Value ---------- *)

let test_value_equal () =
  let v = Rpc.Value.Tuple [ Rpc.Value.int 3; Rpc.Value.str "x" ] in
  checkb "equal" true (Rpc.Value.equal v v);
  checkb "not equal" false
    (Rpc.Value.equal v (Rpc.Value.Tuple [ Rpc.Value.int 4; Rpc.Value.str "x" ]));
  checkb "nan-safe float" true
    (Rpc.Value.equal (Rpc.Value.Float Float.nan) (Rpc.Value.Float Float.nan))

let test_value_field_count () =
  checki "scalar" 1 (Rpc.Value.field_count (Rpc.Value.int 1));
  checki "empty list" 1 (Rpc.Value.field_count (Rpc.Value.List []));
  checki "nested" 3
    (Rpc.Value.field_count
       (Rpc.Value.Tuple
          [ Rpc.Value.int 1; Rpc.Value.Tuple [ Rpc.Value.int 2; Rpc.Value.str "a" ] ]))

(* ---------- Schema ---------- *)

let schema_of_depth rng =
  let rec go depth =
    if depth = 0 then
      match Sim.Rng.int rng ~bound:6 with
      | 0 -> Rpc.Schema.Unit
      | 1 -> Rpc.Schema.Bool
      | 2 -> Rpc.Schema.Int
      | 3 -> Rpc.Schema.Float
      | 4 -> Rpc.Schema.Str
      | _ -> Rpc.Schema.Blob
    else
      match Sim.Rng.int rng ~bound:3 with
      | 0 -> Rpc.Schema.List (go (depth - 1))
      | 1 ->
          Rpc.Schema.Tuple
            (List.init
               (1 + Sim.Rng.int rng ~bound:3)
               (fun _ -> go (depth - 1)))
      | _ -> go 0
  in
  go 2

let test_schema_conforms () =
  let s = Rpc.Schema.Tuple [ Rpc.Schema.Int; Rpc.Schema.Str ] in
  checkb "conforming" true
    (Rpc.Schema.conforms (Rpc.Value.Tuple [ Rpc.Value.int 1; Rpc.Value.str "a" ]) s);
  checkb "wrong arity" false
    (Rpc.Schema.conforms (Rpc.Value.Tuple [ Rpc.Value.int 1 ]) s);
  checkb "wrong type" false
    (Rpc.Schema.conforms (Rpc.Value.Bool true) Rpc.Schema.Int)

let test_schema_default_conforms () =
  let rng = Sim.Rng.create ~seed:1 in
  for _ = 1 to 100 do
    let s = schema_of_depth rng in
    checkb "default conforms" true
      (Rpc.Schema.conforms (Rpc.Schema.default s) s)
  done

let test_schema_arbitrary_conforms () =
  let rng = Sim.Rng.create ~seed:2 in
  for _ = 1 to 100 do
    let s = schema_of_depth rng in
    let v = Rpc.Schema.arbitrary s rng ~size_hint:64 in
    checkb "arbitrary conforms" true (Rpc.Schema.conforms v s)
  done

(* ---------- Codec ---------- *)

let test_varint_edges () =
  let roundtrip v =
    let w = Net.Buf.writer 10 in
    Rpc.Codec.write_varint w v;
    Rpc.Codec.read_varint (Net.Buf.reader (Net.Buf.contents w))
  in
  List.iter
    (fun v -> check Alcotest.int64 "varint" v (roundtrip v))
    [ 0L; 1L; 127L; 128L; 300L; Int64.max_int; -1L (* encodes as 2^64-1 *) ]

let test_codec_roundtrip_known () =
  let s =
    Rpc.Schema.Tuple
      [ Rpc.Schema.Int; Rpc.Schema.Str; Rpc.Schema.List Rpc.Schema.Bool ]
  in
  let v =
    Rpc.Value.Tuple
      [
        Rpc.Value.Int (-42L);
        Rpc.Value.str "hello";
        Rpc.Value.List [ Rpc.Value.Bool true; Rpc.Value.Bool false ];
      ]
  in
  match Rpc.Codec.decode s (Rpc.Codec.encode v) with
  | Ok v' -> check value_testable "roundtrip" v v'
  | Error e -> Alcotest.failf "decode: %a" Rpc.Codec.pp_error e

let test_codec_encoded_size_matches () =
  let rng = Sim.Rng.create ~seed:3 in
  for _ = 1 to 200 do
    let s = schema_of_depth rng in
    let v = Rpc.Schema.arbitrary s rng ~size_hint:40 in
    checki "size prediction"
      (Bytes.length (Rpc.Codec.encode v))
      (Rpc.Codec.encoded_size v)
  done

let test_codec_error_cases () =
  (match Rpc.Codec.decode Rpc.Schema.Int (Bytes.make 0 ' ') with
  | Error Rpc.Codec.Truncated -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Rpc.Codec.pp_error e
  | Ok _ -> Alcotest.fail "decoded empty");
  (match Rpc.Codec.decode Rpc.Schema.Bool (Bytes.make 3 '\001') with
  | Error (Rpc.Codec.Trailing_bytes 2) -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Rpc.Codec.pp_error e
  | Ok _ -> Alcotest.fail "accepted trailing");
  (* Truncated string length. *)
  let w = Net.Buf.writer 4 in
  Rpc.Codec.write_varint w 100L;
  match Rpc.Codec.decode Rpc.Schema.Str (Net.Buf.contents w) with
  | Error Rpc.Codec.Truncated -> ()
  | Error e -> Alcotest.failf "wrong error: %a" Rpc.Codec.pp_error e
  | Ok _ -> Alcotest.fail "accepted truncated string"

(* A 10-byte varint whose value exceeds [max_int] reads as a negative
   length; it must be rejected like any other unsatisfiable length. *)
let test_codec_negative_length () =
  let b = Bytes.of_string "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01" in
  List.iter
    (fun s ->
      match Rpc.Codec.decode s b with
      | Error Rpc.Codec.Truncated -> ()
      | Error e -> Alcotest.failf "wrong error: %a" Rpc.Codec.pp_error e
      | Ok _ -> Alcotest.fail "accepted a negative length")
    [ Rpc.Schema.Str; Rpc.Schema.Blob ]

(* [decode] is total: any bytes give [Ok] or [Error], for every schema
   constructor. A run of 0xff bytes in front steers inputs into long and
   overlong varints. Lists take non-empty elements only: a zero-width
   element lets a hostile count allocate millions of cells. *)
let codec_decode_total =
  let schemas =
    Rpc.Schema.
      [
        Unit;
        Bool;
        Int;
        Float;
        Str;
        Blob;
        List Int;
        List Str;
        Tuple [ Int; Str; Blob ];
        List (Tuple [ Bool; Blob ]);
      ]
  in
  QCheck.Test.make ~name:"codec decode never raises on arbitrary bytes"
    ~count:500
    QCheck.(pair (int_bound 12) (string_of_size Gen.(0 -- 64)))
    (fun (ff, tail) ->
      let b = Bytes.of_string (String.make ff '\xff' ^ tail) in
      List.for_all
        (fun s ->
          match Rpc.Codec.decode s b with
          | Ok _ | Error _ -> true
          | exception e ->
              QCheck.Test.fail_reportf "%a raised %s" Rpc.Schema.pp s
                (Printexc.to_string e))
        schemas)

let codec_roundtrip_property =
  QCheck.Test.make ~name:"codec decode∘encode = id on conforming values"
    ~count:500 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let s = schema_of_depth rng in
      let v = Rpc.Schema.arbitrary s rng ~size_hint:80 in
      match Rpc.Codec.decode s (Rpc.Codec.encode v) with
      | Ok v' -> Rpc.Value.equal v v'
      | Error _ -> false)

(* ---------- Wire format ---------- *)

let test_wire_format_roundtrip () =
  let msg =
    Rpc.Wire_format.request ~rpc_id:99L ~service_id:7 ~method_id:2
      (Rpc.Value.str "payload")
  in
  match Rpc.Wire_format.decode (Rpc.Wire_format.encode msg) with
  | Ok m ->
      check Alcotest.int64 "rpc_id" 99L m.Rpc.Wire_format.rpc_id;
      checki "service" 7 m.Rpc.Wire_format.service_id;
      checki "method" 2 m.Rpc.Wire_format.method_id;
      checkb "kind" true (m.Rpc.Wire_format.kind = Rpc.Wire_format.Request)
  | Error e -> Alcotest.failf "decode: %a" Rpc.Wire_format.pp_error e

let test_wire_format_response_preserves_ids () =
  let req =
    Rpc.Wire_format.request ~rpc_id:5L ~service_id:1 ~method_id:0
      Rpc.Value.Unit
  in
  let resp = Rpc.Wire_format.response ~of_:req (Rpc.Value.int 3) in
  check Alcotest.int64 "id" 5L resp.Rpc.Wire_format.rpc_id;
  checkb "kind" true (resp.Rpc.Wire_format.kind = Rpc.Wire_format.Response)

let test_wire_format_errors () =
  (match Rpc.Wire_format.decode (Bytes.make 4 'x') with
  | Error Rpc.Wire_format.Truncated -> ()
  | _ -> Alcotest.fail "short buffer accepted");
  let msg =
    Rpc.Wire_format.request ~rpc_id:1L ~service_id:1 ~method_id:0
      Rpc.Value.Unit
  in
  let b = Rpc.Wire_format.encode msg in
  Bytes.set b 0 'Z';
  (match Rpc.Wire_format.decode b with
  | Error (Rpc.Wire_format.Bad_magic _) -> ()
  | _ -> Alcotest.fail "bad magic accepted");
  let b2 = Rpc.Wire_format.encode msg in
  Bytes.set b2 3 '\009';
  match Rpc.Wire_format.decode b2 with
  | Error (Rpc.Wire_format.Bad_kind 9) -> ()
  | _ -> Alcotest.fail "bad kind accepted"

(* The NIC's classify stage runs [decode] on every frame it receives, so
   it must be total: any bytes give [Ok] or [Error]. Each case checks
   arbitrary bytes (0-200 B), a truncation and a byte-flipped copy of a
   valid header — with or without the trace-context extension. *)
let wire_format_decode_total =
  QCheck.Test.make ~name:"wire header decode never raises on hostile bytes"
    ~count:500
    QCheck.(
      pair
        (triple (string_of_size Gen.(0 -- 200)) (int_bound 100_000)
           (small_list (pair (int_bound 10_000) (int_bound 255))))
        (triple (int_bound 2) bool (string_of_size Gen.(0 -- 64))))
    (fun ((junk, cut, flips), (kind, with_ctx, body)) ->
      let valid =
        Rpc.Wire_format.encode
          {
            Rpc.Wire_format.rpc_id = Int64.of_int cut;
            service_id = cut land 0xffff;
            method_id = cut land 0xff;
            kind =
              (match kind with
              | 0 -> Rpc.Wire_format.Request
              | 1 -> Rpc.Wire_format.Response
              | _ -> Rpc.Wire_format.Error_reply (cut land 0xff));
            ctx =
              (if with_ctx then
                 Some (Bytes.make Rpc.Wire_format.ctx_size '\x5a')
               else None);
            body = Bytes.of_string body;
          }
      in
      let n = Bytes.length valid in
      let flipped = Bytes.copy valid in
      List.iter
        (fun (pos, x) ->
          let i = pos mod n in
          Bytes.set flipped i
            (Char.chr (Char.code (Bytes.get flipped i) lxor (x lor 1))))
        flips;
      List.for_all
        (fun b ->
          match Rpc.Wire_format.decode b with
          | Ok _ | Error _ -> true
          | exception e ->
              QCheck.Test.fail_reportf "%S raised %s" (Bytes.to_string b)
                (Printexc.to_string e))
        [ Bytes.of_string junk; Bytes.sub valid 0 (cut mod (n + 1)); flipped ])

(* ---------- Interface ---------- *)

let test_echo_service () =
  let svc = Rpc.Interface.echo_service ~id:4 in
  match Rpc.Interface.find_method svc 0 with
  | None -> Alcotest.fail "no echo method"
  | Some m ->
      let v = Rpc.Value.Blob (Bytes.of_string "abc") in
      check value_testable "echo" v (m.Rpc.Interface.execute v)

let test_counter_service_stateful () =
  let svc = Rpc.Interface.counter_service ~id:5 in
  let add = Option.get (Rpc.Interface.find_method svc 0) in
  let read = Option.get (Rpc.Interface.find_method svc 1) in
  ignore (add.Rpc.Interface.execute (Rpc.Value.int 10));
  ignore (add.Rpc.Interface.execute (Rpc.Value.int 5));
  check value_testable "sum" (Rpc.Value.Int 15L)
    (read.Rpc.Interface.execute Rpc.Value.Unit)

let test_kv_service () =
  let svc = Rpc.Interface.kv_service ~id:6 () in
  let get = Option.get (Rpc.Interface.find_method svc 0) in
  let put = Option.get (Rpc.Interface.find_method svc 1) in
  let delete = Option.get (Rpc.Interface.find_method svc 2) in
  ignore
    (put.Rpc.Interface.execute
       (Rpc.Value.Tuple [ Rpc.Value.str "k"; Rpc.Value.Blob (Bytes.of_string "v") ]));
  check value_testable "get hit"
    (Rpc.Value.Tuple [ Rpc.Value.Bool true; Rpc.Value.Blob (Bytes.of_string "v") ])
    (get.Rpc.Interface.execute (Rpc.Value.str "k"));
  check value_testable "delete" (Rpc.Value.Bool true)
    (delete.Rpc.Interface.execute (Rpc.Value.str "k"));
  check value_testable "get miss"
    (Rpc.Value.Tuple [ Rpc.Value.Bool false; Rpc.Value.Blob Bytes.empty ])
    (get.Rpc.Interface.execute (Rpc.Value.str "k"))

let test_service_duplicate_methods_rejected () =
  checkb "raises" true
    (try
       let m =
         Rpc.Interface.method_def ~id:0 ~name:"m" ~request:Rpc.Schema.Unit
           ~response:Rpc.Schema.Unit (fun v -> v)
       in
       ignore (Rpc.Interface.service ~id:1 ~name:"dup" [ m; m ]);
       false
     with Invalid_argument _ -> true)

(* ---------- Deser cost ---------- *)

let test_deser_cost_monotone () =
  let p = Rpc.Deser_cost.software in
  let small = Rpc.Deser_cost.cost p ~fields:1 ~bytes:16 in
  let big = Rpc.Deser_cost.cost p ~fields:100 ~bytes:4096 in
  checkb "monotone" true (big > small);
  checkb "nic cheaper" true
    (Rpc.Deser_cost.cost Rpc.Deser_cost.nic_pipeline ~fields:10 ~bytes:256
     < Rpc.Deser_cost.cost p ~fields:10 ~bytes:256)

let test_deser_cost_of_value () =
  let v = Rpc.Value.Tuple [ Rpc.Value.int 1; Rpc.Value.str "abcd" ] in
  let c = Rpc.Deser_cost.cost_of_value Rpc.Deser_cost.software v in
  checkb "positive" true (c > 0)

(* ---------- Continuations ---------- *)

let test_continuation_fire_and_recycle () =
  let t = Rpc.Continuation.create ~initial_capacity:2 () in
  let got = ref [] in
  let id1 = Rpc.Continuation.alloc t (fun v -> got := v :: !got) in
  let id2 = Rpc.Continuation.alloc t (fun v -> got := v :: !got) in
  checki "live" 2 (Rpc.Continuation.live t);
  checkb "fire" true (Rpc.Continuation.fire t id1 "a");
  checkb "double fire" false (Rpc.Continuation.fire t id1 "b");
  checkb "cancel" true (Rpc.Continuation.cancel t id2);
  checki "drained" 0 (Rpc.Continuation.live t);
  (* Recycled ids keep working. *)
  let id3 = Rpc.Continuation.alloc t (fun v -> got := v :: !got) in
  checkb "recycled id valid" true (Rpc.Continuation.fire t id3 "c");
  check (Alcotest.list Alcotest.string) "delivery order" [ "c"; "a" ] !got

let test_continuation_growth () =
  let t = Rpc.Continuation.create ~initial_capacity:2 () in
  let ids = List.init 100 (fun i -> Rpc.Continuation.alloc t (fun _ -> ignore i)) in
  checki "live" 100 (Rpc.Continuation.live t);
  List.iter (fun id -> ignore (Rpc.Continuation.fire t id 0)) ids;
  checki "drained" 0 (Rpc.Continuation.live t)

let test_continuation_unknown_ids () =
  let t : int Rpc.Continuation.t = Rpc.Continuation.create () in
  checkb "fire unknown" false (Rpc.Continuation.fire t 12345 0);
  checkb "fire negative" false (Rpc.Continuation.fire t (-1) 0);
  checkb "cancel unknown" false (Rpc.Continuation.cancel t 99)

let continuation_matches_reference_model =
  QCheck.Test.make
    ~name:"continuation table behaves like a reference map" ~count:300
    QCheck.(list (pair (int_bound 2) (int_bound 30)))
    (fun ops ->
      (* op 0 = alloc, 1 = fire nth live id, 2 = cancel nth live id. *)
      let t : int Rpc.Continuation.t = Rpc.Continuation.create () in
      let fired = ref [] in
      let model : (int, int) Hashtbl.t = Hashtbl.create 16 in
      let expect_fired = ref [] in
      let next_tag = ref 0 in
      let live_ids () =
        Hashtbl.fold (fun id _ acc -> id :: acc) model []
        |> List.sort Int.compare
      in
      List.iter
        (fun (op, n) ->
          match op with
          | 0 ->
              let tag = !next_tag in
              incr next_tag;
              let id =
                Rpc.Continuation.alloc t (fun v -> fired := v :: !fired)
              in
              Hashtbl.replace model id tag
          | 1 -> (
              match live_ids () with
              | [] -> ()
              | ids ->
                  let id = List.nth ids (n mod List.length ids) in
                  let tag = Hashtbl.find model id in
                  Hashtbl.remove model id;
                  expect_fired := tag :: !expect_fired;
                  ignore (Rpc.Continuation.fire t id tag))
          | _ -> (
              match live_ids () with
              | [] -> ()
              | ids ->
                  let id = List.nth ids (n mod List.length ids) in
                  Hashtbl.remove model id;
                  ignore (Rpc.Continuation.cancel t id)))
        ops;
      Rpc.Continuation.live t = Hashtbl.length model
      && !fired = !expect_fired)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "rpc"
    [
      ( "value",
        [
          Alcotest.test_case "equal" `Quick test_value_equal;
          Alcotest.test_case "field_count" `Quick test_value_field_count;
        ] );
      ( "schema",
        [
          Alcotest.test_case "conforms" `Quick test_schema_conforms;
          Alcotest.test_case "default conforms" `Quick
            test_schema_default_conforms;
          Alcotest.test_case "arbitrary conforms" `Quick
            test_schema_arbitrary_conforms;
        ] );
      ( "codec",
        [
          Alcotest.test_case "varint edges" `Quick test_varint_edges;
          Alcotest.test_case "known roundtrip" `Quick
            test_codec_roundtrip_known;
          Alcotest.test_case "size prediction" `Quick
            test_codec_encoded_size_matches;
          Alcotest.test_case "error cases" `Quick test_codec_error_cases;
          Alcotest.test_case "negative length" `Quick
            test_codec_negative_length;
        ]
        @ qsuite [ codec_roundtrip_property; codec_decode_total ] );
      ( "wire_format",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_format_roundtrip;
          Alcotest.test_case "response ids" `Quick
            test_wire_format_response_preserves_ids;
          Alcotest.test_case "errors" `Quick test_wire_format_errors;
        ]
        @ qsuite [ wire_format_decode_total ] );
      ( "interface",
        [
          Alcotest.test_case "echo" `Quick test_echo_service;
          Alcotest.test_case "counter stateful" `Quick
            test_counter_service_stateful;
          Alcotest.test_case "kv store" `Quick test_kv_service;
          Alcotest.test_case "duplicate methods rejected" `Quick
            test_service_duplicate_methods_rejected;
        ] );
      ( "deser_cost",
        [
          Alcotest.test_case "monotone" `Quick test_deser_cost_monotone;
          Alcotest.test_case "of value" `Quick test_deser_cost_of_value;
        ] );
      ( "continuation",
        [
          Alcotest.test_case "fire and recycle" `Quick
            test_continuation_fire_and_recycle;
          Alcotest.test_case "growth" `Quick test_continuation_growth;
          Alcotest.test_case "unknown ids" `Quick test_continuation_unknown_ids;
        ]
        @ qsuite [ continuation_matches_reference_model ] );
    ]
