type t = {
  table : int array;
  queues : int;
  indirection : int array;
}

let default_key =
  "\x6d\x5a\x56\xda\x25\x5b\x0e\xc2\x41\x67\x25\x3d\x43\xa3\x8f\xb0\
   \xd0\xca\x2b\xcb\xae\x7b\x30\xb4\x77\xcb\x2d\xa3\x80\x30\xf2\x0c\
   \x6a\x42\xb7\x3b\xbe\xac\x01\xfa"

let key_window key ~bit =
  (* 32-bit window of the key starting at bit offset [bit]. *)
  let byte = bit / 8 and shift = bit mod 8 in
  let b i =
    if byte + i < String.length key then Char.code key.[byte + i] else 0
  in
  let forty =
    Int64.logor
      (Int64.shift_left (Int64.of_int (b 0)) 32)
      (Int64.of_int ((b 1 lsl 24) lor (b 2 lsl 16) lor (b 3 lsl 8) lor b 4))
  in
  Int64.to_int (Int64.logand (Int64.shift_right_logical forty (8 - shift))
                  0xffff_ffffL)

let toeplitz_hash ~key data =
  let acc = ref 0 in
  for i = 0 to Bytes.length data - 1 do
    let byte = Char.code (Bytes.get data i) in
    for bit = 0 to 7 do
      if byte land (0x80 lsr bit) <> 0 then
        acc := !acc lxor key_window key ~bit:((i * 8) + bit)
    done
  done;
  !acc land 0xffff_ffff

(* [table.(pos * 256 + v)] is the hash contribution of byte value [v] at
   input position [pos]: the XOR of the key windows of its set bits.
   Each entry is the entry with its lowest set bit cleared, XOR the
   window of that bit. Positions at or past the key length see only the
   zero padding, contribute nothing, and have no row. *)
let build_table key =
  let rec msb_index b = if b = 0x80 then 0 else 1 + msb_index (b lsl 1) in
  let n = String.length key in
  let table = Array.make (n * 256) 0 in
  for pos = 0 to n - 1 do
    let row = pos * 256 in
    for v = 1 to 255 do
      let low = v land -v in
      table.(row + v) <-
        table.(row + (v lxor low))
        lxor key_window key ~bit:((pos * 8) + msb_index low)
    done
  done;
  table

let default_table = build_table default_key

let create ?(key = default_key) ~queues () =
  if queues <= 0 then invalid_arg "Rss.create: queues <= 0";
  if String.length key < 40 then invalid_arg "Rss.create: key shorter than 40B";
  let table =
    if String.equal key default_key then default_table else build_table key
  in
  (* 128-entry indirection table, round-robin initialised (the common
     driver default). *)
  let indirection = Array.init 128 (fun i -> i mod queues) in
  { table; queues; indirection }

let[@hot_path] table_hash table data n =
  if n < 0 || n > Bytes.length data then invalid_arg "Rss: length out of range";
  let len = min n (Array.length table / 256) in
  let acc = ref 0 in
  for i = 0 to len - 1 do
    acc :=
      !acc
      lxor Array.unsafe_get table ((i * 256) + Char.code (Bytes.unsafe_get data i))
  done;
  !acc

let[@hot_path] hash_sub data n = table_hash default_table data n
let hash data = hash_sub data (Bytes.length data)
let hash_bytes t data = table_hash t.table data (Bytes.length data)

(* Byte [i] (big-endian) of the 32-bit [v] at input position [pos]. *)
let[@inline] u32_byte table pos v i =
  Array.unsafe_get table (((pos + i) * 256) + ((v lsr (24 - (8 * i))) land 0xff))

let[@inline] u16_byte table pos v i =
  Array.unsafe_get table (((pos + i) * 256) + ((v lsr (8 - (8 * i))) land 0xff))

(* The 12-byte tuple src_ip, dst_ip, src_port, dst_port, each
   big-endian; every key is at least 40 B, so all 12 rows exist. *)
let[@hot_path] hash_flow t ~src_ip ~dst_ip ~src_port ~dst_port =
  let tb = t.table in
  let s = Net.Ip_addr.to_int src_ip and d = Net.Ip_addr.to_int dst_ip in
  u32_byte tb 0 s 0 lxor u32_byte tb 0 s 1 lxor u32_byte tb 0 s 2
  lxor u32_byte tb 0 s 3 lxor u32_byte tb 4 d 0 lxor u32_byte tb 4 d 1
  lxor u32_byte tb 4 d 2 lxor u32_byte tb 4 d 3
  lxor u16_byte tb 8 src_port 0 lxor u16_byte tb 8 src_port 1
  lxor u16_byte tb 10 dst_port 0 lxor u16_byte tb 10 dst_port 1

let queue_for t ~src_ip ~dst_ip ~src_port ~dst_port =
  let h = hash_flow t ~src_ip ~dst_ip ~src_port ~dst_port in
  t.indirection.(h land (Array.length t.indirection - 1))

let[@hot_path] queue_of_frame t (f : Net.Frame.t) =
  queue_for t ~src_ip:f.Net.Frame.ip.Net.Ipv4.src
    ~dst_ip:f.Net.Frame.ip.Net.Ipv4.dst
    ~src_port:f.Net.Frame.udp.Net.Udp.src_port
    ~dst_port:f.Net.Frame.udp.Net.Udp.dst_port
