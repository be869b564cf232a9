type request = {
  rpc_id : int64;
  service_id : int;
  method_id : int;
  code_ptr : int64;
  data_ptr : int64;
  total_args : int;
  inline_args : Net.Slice.t;
  aux_count : int;
  via_dma : bool;
}

type response = {
  resp_rpc_id : int64;
  status : int;
  total_len : int;
  inline_body : Net.Slice.t;
  resp_aux_count : int;
}

type t =
  | Request of request
  | Kernel_dispatch of request
  | Tryagain
  | Retire

let request_header_bytes = 40
let response_header_bytes = 20

let request_inline_capacity ~line_bytes = line_bytes - request_header_bytes
let response_inline_capacity ~line_bytes = line_bytes - response_header_bytes

let tag_request = 1
let tag_tryagain = 2
let tag_retire = 3
let tag_response = 4
let tag_kernel_dispatch = 5

let flag_via_dma = 0x01

let encode_request_body ~line_bytes ~tag (r : request) =
  let cap = request_inline_capacity ~line_bytes in
  if Net.Slice.length r.inline_args > cap then
    invalid_arg
      (Printf.sprintf "Message.encode: %d inline bytes > capacity %d"
         (Net.Slice.length r.inline_args) cap);
  let w = Net.Buf.writer line_bytes in
  Net.Buf.write_u8 w tag;
  Net.Buf.write_u8 w (if r.via_dma then flag_via_dma else 0);
  Net.Buf.write_u16 w r.aux_count;
  Net.Buf.write_u32 w r.service_id;
  Net.Buf.write_u16 w r.method_id;
  Net.Buf.write_u16 w (Net.Slice.length r.inline_args);
  Net.Buf.write_u32 w r.total_args;
  Net.Buf.write_u64 w r.rpc_id;
  Net.Buf.write_u64 w r.code_ptr;
  Net.Buf.write_u64 w r.data_ptr;
  Net.Buf.write_slice w r.inline_args;
  (* Pad the line image to full size without a scratch buffer, then
     hand back the writer's own buffer — the image is exactly one
     allocation. *)
  Net.Buf.write_zeros w (line_bytes - Net.Buf.writer_pos w);
  Net.Buf.filled w

let single_tag_line ~line_bytes tag =
  let w = Net.Buf.writer line_bytes in
  Net.Buf.write_u8 w tag;
  Net.Buf.write_zeros w (line_bytes - 1);
  Net.Buf.filled w

let encode ~line_bytes t =
  if line_bytes < request_header_bytes then
    invalid_arg "Message.encode: line too small for header";
  match t with
  | Request r -> encode_request_body ~line_bytes ~tag:tag_request r
  | Kernel_dispatch r ->
      encode_request_body ~line_bytes ~tag:tag_kernel_dispatch r
  | Tryagain -> single_tag_line ~line_bytes tag_tryagain
  | Retire -> single_tag_line ~line_bytes tag_retire

let encode_response ~line_bytes (r : response) =
  let cap = response_inline_capacity ~line_bytes in
  if Net.Slice.length r.inline_body > cap then
    invalid_arg
      (Printf.sprintf
         "Message.encode_response: %d inline bytes > capacity %d"
         (Net.Slice.length r.inline_body) cap);
  let w = Net.Buf.writer line_bytes in
  Net.Buf.write_u8 w tag_response;
  Net.Buf.write_u8 w 0;
  Net.Buf.write_u16 w r.status;
  Net.Buf.write_u16 w (Net.Slice.length r.inline_body);
  Net.Buf.write_u16 w r.resp_aux_count;
  Net.Buf.write_u32 w r.total_len;
  Net.Buf.write_u64 w r.resp_rpc_id;
  Net.Buf.write_slice w r.inline_body;
  Net.Buf.write_zeros w (line_bytes - Net.Buf.writer_pos w);
  Net.Buf.filled w

let decode_request_body r =
  let flags = Net.Buf.read_u8 r in
  let aux_count = Net.Buf.read_u16 r in
  let service_id = Net.Buf.read_u32 r in
  let method_id = Net.Buf.read_u16 r in
  let inline_len = Net.Buf.read_u16 r in
  let total_args = Net.Buf.read_u32 r in
  let rpc_id = Net.Buf.read_u64 r in
  let code_ptr = Net.Buf.read_u64 r in
  let data_ptr = Net.Buf.read_u64 r in
  let inline_args = Net.Buf.read_slice r ~len:inline_len in
  {
    rpc_id;
    service_id;
    method_id;
    code_ptr;
    data_ptr;
    total_args;
    inline_args;
    aux_count;
    via_dma = flags land flag_via_dma <> 0;
  }

let decode b =
  match
    let r = Net.Buf.reader b in
    let tag = Net.Buf.read_u8 r in
    if Int.equal tag tag_request then Ok (Request (decode_request_body r))
    else if Int.equal tag tag_kernel_dispatch then
      Ok (Kernel_dispatch (decode_request_body r))
    else if Int.equal tag tag_tryagain then Ok Tryagain
    else if Int.equal tag tag_retire then Ok Retire
    else Error (Printf.sprintf "unknown control-line tag %d" tag)
  with
  | result -> result
  | exception Net.Buf.Out_of_bounds msg -> Error ("truncated line: " ^ msg)

let decode_response b =
  match
    let r = Net.Buf.reader b in
    let tag = Net.Buf.read_u8 r in
    if not (Int.equal tag tag_response) then
      Error (Printf.sprintf "not a response line (tag %d)" tag)
    else begin
      let _flags = Net.Buf.read_u8 r in
      let status = Net.Buf.read_u16 r in
      let inline_len = Net.Buf.read_u16 r in
      let resp_aux_count = Net.Buf.read_u16 r in
      let total_len = Net.Buf.read_u32 r in
      let resp_rpc_id = Net.Buf.read_u64 r in
      let inline_body = Net.Buf.read_slice r ~len:inline_len in
      Ok { resp_rpc_id; status; total_len; inline_body; resp_aux_count }
    end
  with
  | result -> result
  | exception Net.Buf.Out_of_bounds msg -> Error ("truncated line: " ^ msg)

let equal_request (a : request) (b : request) =
  Int64.equal a.rpc_id b.rpc_id
  && Int.equal a.service_id b.service_id
  && Int.equal a.method_id b.method_id
  && Int64.equal a.code_ptr b.code_ptr
  && Int64.equal a.data_ptr b.data_ptr
  && Int.equal a.total_args b.total_args
  && Net.Slice.equal a.inline_args b.inline_args
  && Int.equal a.aux_count b.aux_count
  && Bool.equal a.via_dma b.via_dma

let equal a b =
  match (a, b) with
  | Request x, Request y | Kernel_dispatch x, Kernel_dispatch y ->
      equal_request x y
  | Tryagain, Tryagain | Retire, Retire -> true
  | (Request _ | Kernel_dispatch _ | Tryagain | Retire), _ -> false

let pp ppf = function
  | Request r ->
      Format.fprintf ppf
        "request id=%Ld svc=%d mth=%d code=0x%Lx args=%d/%d aux=%d%s"
        r.rpc_id r.service_id r.method_id r.code_ptr
        (Net.Slice.length r.inline_args)
        r.total_args r.aux_count
        (if r.via_dma then " via-dma" else "")
  | Kernel_dispatch r ->
      Format.fprintf ppf "kernel-dispatch svc=%d id=%Ld" r.service_id
        r.rpc_id
  | Tryagain -> Format.pp_print_string ppf "tryagain"
  | Retire -> Format.pp_print_string ppf "retire"
