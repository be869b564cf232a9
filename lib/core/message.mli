(** Byte-level layout of CONTROL cache lines (paper Figure 4).

    The NIC answers a parked load with a carefully prepared cache line
    holding "only the information needed to dispatch an RPC: just the
    arguments and virtual address of the first instruction of the
    target function to jump to". This module is that layout, encoded
    for real into line-sized byte buffers, so tests can check that what
    the CPU decodes is exactly what the NIC staged.

    A request CONTROL line is a 40-byte header plus inline argument
    bytes; arguments beyond the line spill into auxiliary lines, and
    payloads beyond the endpoint window travel by DMA with only the
    header delivered coherently. *)

type request = {
  rpc_id : int64;
  service_id : int;
  method_id : int;
  code_ptr : int64;  (** VA of the handler's first instruction. *)
  data_ptr : int64;  (** VA of the endpoint's data area. *)
  total_args : int;  (** Unmarshaled argument bytes in total. *)
  inline_args : Net.Slice.t;  (** The prefix carried in this line. *)
  aux_count : int;  (** Auxiliary lines holding the rest. *)
  via_dma : bool;  (** Large payload: body delivered by DMA. *)
}

type response = {
  resp_rpc_id : int64;
  status : int;  (** 0 = success; else application error code. *)
  total_len : int;
  inline_body : Net.Slice.t;
  resp_aux_count : int;
}

type t =
  | Request of request
  | Kernel_dispatch of request
      (** Same body, addressed to a kernel dispatcher CONTROL line
          because no user thread was available (Figure 5 slow path). *)
  | Tryagain
  | Retire  (** Reallocation request to a non-preemptible kthread. *)

val request_inline_capacity : line_bytes:int -> int
(** [line_bytes] less the 40-byte request header. *)

val response_inline_capacity : line_bytes:int -> int
(** [line_bytes] less the 20-byte response header. *)

val encode : line_bytes:int -> t -> bytes
(** Render into one line image (length exactly [line_bytes]).
    @raise Invalid_argument if inline bytes exceed capacity or fields
    are out of range. *)

val encode_response : line_bytes:int -> response -> bytes

val decode : bytes -> (t, string) result
(** Decode a line the CPU just loaded. The inline bytes of the result
    are a zero-copy view into [b]; they stay valid only while the line
    image is not overwritten. *)

val decode_response : bytes -> (response, string) result
(** Decode a line the NIC just fetched back. Same aliasing rule as
    {!decode}. *)

val equal : t -> t -> bool
(** Content equality: inline slices are compared by contents, not by
    backing buffer identity. *)

val pp : Format.formatter -> t -> unit
