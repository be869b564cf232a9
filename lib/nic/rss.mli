(** Receive-Side Scaling: Toeplitz flow hashing to spread flows across
    receive queues without OS involvement (§3 of the paper uses RSS as
    the canonical "offload that bypasses the OS entirely").

    This is a real Toeplitz implementation over the IPv4 5-tuple (minus
    protocol, as in Microsoft's RSS spec for UDP: src/dst address and
    src/dst port), with the standard 40-byte default key.

    {b Table-driven hashing.} The Toeplitz hash is linear over XOR, so
    each input byte contributes independently. Every key gets a table
    with one row per key byte position and 256 32-bit entries per row:
    entry [v] of row [pos] is the hash of byte value [v] at input
    position [pos]. A hash is then one table load and one XOR per input
    byte, with no allocation; bytes at or past the key length meet only
    the key's zero padding and contribute nothing. The default key's
    table (40 rows, about 80 KB) is built once when the module is
    initialised and shared by every {!create} with the default key; a
    custom key builds its own table in {!create}.

    {!toeplitz_hash} is the bit-serial reference: it is kept as the
    specification the tables are tested against, not used on any
    per-frame path. *)

type t

val create : ?key:string -> queues:int -> unit -> t
(** @raise Invalid_argument if [queues <= 0] or the key is shorter than
    40 bytes. *)

val default_key : string
(** The de-facto standard Microsoft RSS key. *)

val toeplitz_hash : key:string -> bytes -> int
(** Raw 32-bit Toeplitz hash of the input bytes under the key, computed
    bit by bit: the reference the table path must equal. *)

val hash : bytes -> int
(** [hash data] is [toeplitz_hash ~key:default_key data]: the pure,
    reusable flow hash, computed from the shared default table.  The
    steering DSL's key-hash primitive ({!Steer}) uses exactly this
    function, so steering-by-key and RSS provably agree on hash values
    (QCheck-tested). *)

val hash_sub : bytes -> int -> int
(** [hash_sub b n] is [hash (Bytes.sub b 0 n)] without the copy.
    Allocates nothing.
    @raise Invalid_argument if [n < 0] or [n > Bytes.length b]. *)

val hash_bytes : t -> bytes -> int
(** Table hash of the input under [t]'s key: equal to
    [toeplitz_hash ~key data] for the key [t] was created with. *)

val hash_flow :
  t -> src_ip:Net.Ip_addr.t -> dst_ip:Net.Ip_addr.t -> src_port:int ->
  dst_port:int -> int
(** 32-bit flow hash of the 12-byte tuple (src IP, dst IP, src port,
    dst port, each big-endian): twelve table loads, no allocation. *)

val queue_for :
  t -> src_ip:Net.Ip_addr.t -> dst_ip:Net.Ip_addr.t -> src_port:int ->
  dst_port:int -> int
(** Indirection-table lookup: hash → queue index in [0, queues). *)

val queue_of_frame : t -> Net.Frame.t -> int
(** {!queue_for} on the frame's addresses and ports. Allocates
    nothing. *)
