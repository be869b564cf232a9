(** Schema-directed wire encoding of {!Value.t}.

    Integers use LEB128 varints with zigzag for sign (protobuf-style);
    floats are 8-byte IEEE 754; strings/blobs/lists are varint length
    followed by contents; tuples are fields in order with no framing.
    Decoding requires the schema, exactly as the NIC-side hardware
    unmarshaler does. *)

val encode : Value.t -> bytes
(** @raise Invalid_argument if called on a value that could not have
    come from any schema (never happens for conforming values). *)

val encoded_size : Value.t -> int
(** Exact size [Bytes.length (encode v)] without materializing. *)

type error = Truncated | Trailing_bytes of int | Overlong_varint

val decode : Schema.t -> bytes -> (Value.t, error) result
(** Decode a complete buffer; trailing bytes are an error. Total:
    malformed input is an [Error], never an exception. *)

val pp_error : Format.formatter -> error -> unit

(**/**)

val write_varint : Net.Buf.writer -> int64 -> unit
val read_varint : Net.Buf.reader -> int64
(** Exposed for tests. [read_varint] raises [Net.Buf.Out_of_bounds] on
    truncation and [Failure] on a varint longer than 10 bytes. *)
