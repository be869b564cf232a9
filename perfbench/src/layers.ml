(* Replays of a traced round's captured inputs through single layers'
   public functions, timed on the host clock. Each figure is host ns
   (or words) per item, from enough repetitions to fill a minimum
   measuring window. *)

let min_window_s = 0.05

(* Host ns per item of [f] over [items], repeated until the window is
   filled; 0 when there is nothing to replay. *)
let ns_per_item items f =
  let n = Array.length items in
  if n = 0 then 0.
  else begin
    Array.iter f items (* warm *);
    let reps = ref 0 in
    let t0 = Host.wall_s () in
    while Host.wall_s () -. t0 < min_window_s do
      Array.iter f items;
      incr reps
    done;
    (Host.wall_s () -. t0) *. 1e9 /. float_of_int (!reps * n)
  end

let words_per_item items f =
  let n = Array.length items in
  if n = 0 then 0.
  else begin
    let w0 = Gc.minor_words () in
    Array.iter f items;
    (Gc.minor_words () -. w0) /. float_of_int n
  end

let decode_msg (f : Net.Frame.t) =
  match Rpc.Wire_format.decode f.Net.Frame.payload with
  | Ok m -> Some m
  | Error _ -> None

let requests frames =
  Array.of_list
    (List.filter
       (fun f ->
         match decode_msg f with
         | Some m -> Rpc.Wire_format.is_request m
         | None -> false)
       frames)

(* Frames carrying the benchmark's 64 B and 1400 B blobs, told apart by
   UDP payload length (blob plus RPC header). *)
let payload_len (f : Net.Frame.t) = Bytes.length f.Net.Frame.payload

let class_64 f = payload_len f < 256
let class_1400 f = payload_len f >= 1024

let frame_codec frames =
  let buf = Bytes.create 2048 in
  ns_per_item frames (fun f ->
      match Net.Frame.parse_slice (Net.Frame.encode_into f buf) with
      | Ok v -> ignore (Sys.opaque_identity v)
      | Error _ -> failwith "frame replay: captured frame does not re-parse")

let rpc_codec msgs =
  let values =
    Array.map
      (fun (m : Rpc.Wire_format.t) ->
        match Rpc.Codec.decode Rpc.Schema.Blob m.Rpc.Wire_format.body with
        | Ok v -> v
        | Error _ -> failwith "codec replay: captured body does not decode")
      msgs
  in
  ns_per_item values (fun v ->
      match Rpc.Codec.decode Rpc.Schema.Blob (Rpc.Codec.encode v) with
      | Ok v -> ignore (Sys.opaque_identity v)
      | Error _ -> failwith "codec replay: round trip failed")

let wire_hdr msgs =
  ns_per_item msgs (fun m ->
      match Rpc.Wire_format.decode (Rpc.Wire_format.encode m) with
      | Ok m -> ignore (Sys.opaque_identity m)
      | Error _ -> failwith "wire replay: round trip failed")

(* Every per-layer figure the captured frames give. *)
let replay ~lanes frames =
  let reqs = requests frames in
  let pick p = Array.of_list (List.filter p frames) in
  let msgs = Array.of_list (List.filter_map decode_msg frames) in
  let rss = Nic.Rss.create ~queues:lanes () in
  let rss_q f = ignore (Sys.opaque_identity (Nic.Rss.queue_of_frame rss f)) in
  let steer =
    Nic.Steer.compile
      ~rss:(Nic.Rss.queue_of_frame rss)
      (Experiments.Steering.affinity_program ~lanes)
  in
  let steer_q f = ignore (Sys.opaque_identity (steer f)) in
  [
    ("net.frame_codec_ns.64B", frame_codec (pick class_64));
    ("net.frame_codec_ns.1400B", frame_codec (pick class_1400));
    ("rpc.codec_ns_per_call", rpc_codec msgs);
    ("rpc.wire_hdr_ns", wire_hdr msgs);
    ("nic.rss_ns_per_frame", ns_per_item reqs rss_q);
    ("nic.rss_words_per_frame", words_per_item reqs rss_q);
    ("nic.steer_ns_per_frame", ns_per_item reqs steer_q);
  ]
