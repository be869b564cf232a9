(** Bounded cursor-based reader/writer over [bytes].

    All NIC header encoders and decoders in this repository go through
    this module, so every out-of-bounds access and every truncated
    packet surfaces as {!exception-Out_of_bounds} rather than silent
    corruption. Multi-byte integers are big-endian (network order). *)

exception Out_of_bounds of string

type reader
type writer

(** {1 Writing} *)

val writer : int -> writer
(** A writer over a fresh zeroed buffer of the given capacity. *)

val writer_over : bytes -> writer
(** A writer over a caller-owned (e.g. {!Pool}) buffer, starting at
    position 0. Existing contents are NOT cleared: use {!write_zeros}
    for padding instead of relying on a zeroed buffer. *)

val writer_pos : writer -> int
(** Bytes written so far. *)

val writer_bytes : writer -> bytes
(** The underlying buffer (no copy) — for in-place checksum
    computation over an already-written region. Positions in it are
    absolute writer positions. *)

val write_u8 : writer -> int -> unit
(** @raise Invalid_argument if the value is outside [0, 255]. *)

val write_u16 : writer -> int -> unit
val write_u32 : writer -> int -> unit
val write_u64 : writer -> int64 -> unit
val write_bytes : writer -> bytes -> unit
val write_string : writer -> string -> unit

val write_slice : writer -> Slice.t -> unit
(** Blit a slice's contents (one copy, into the writer). *)

val write_zeros : writer -> int -> unit
(** Write [n] zero bytes without allocating a scratch buffer. *)

val patch_u16 : writer -> pos:int -> int -> unit
(** Overwrite two bytes at an already-written position (checksum
    back-patching). *)

val contents : writer -> bytes
(** Copy of the bytes written so far. *)

val filled : writer -> bytes
(** The underlying buffer without copying, for exact-capacity writers.
    @raise Out_of_bounds if the writer is not full — that would leak
    uninitialised (or stale) tail bytes. *)

val written_slice : writer -> Slice.t
(** Zero-copy view of the bytes written so far. *)

(** {1 Reading} *)

val reader : bytes -> reader

val reader_of_slice : Slice.t -> reader
(** Reader over a slice's range, without copying. *)

val sub_reader : bytes -> pos:int -> len:int -> reader
val reader_pos : reader -> int

val reader_bytes : reader -> bytes
(** The underlying buffer (no copy) — for in-place checksum
    verification over a region about to be parsed. Positions in it are
    absolute reader positions. *)

val remaining : reader -> int

val narrow : reader -> len:int -> reader
(** A reader over the next [len] unread bytes (shares the buffer; the
    original reader is not advanced). Replaces [sub_reader] +
    [Bytes.sub] in zero-copy parsers. *)

val read_u8 : reader -> int
val read_u16 : reader -> int
val read_u32 : reader -> int
val read_u64 : reader -> int64
val read_bytes : reader -> len:int -> bytes

val read_slice : reader -> len:int -> Slice.t
(** Like {!read_bytes} but returns a view instead of a copy. *)

val skip : reader -> len:int -> unit

val expect_end : reader -> unit
(** @raise Out_of_bounds if unread bytes remain (trailing-garbage
    detection for strict parsers). *)
