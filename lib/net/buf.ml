exception Out_of_bounds of string

type reader = { rbuf : bytes; rlimit : int; mutable rpos : int }
type writer = { wbuf : bytes; mutable wpos : int }

let fail fmt = Printf.ksprintf (fun s -> raise (Out_of_bounds s)) fmt

(* Writing *)

let writer n =
  if n < 0 then invalid_arg "Buf.writer: negative capacity";
  { wbuf = Bytes.make n '\000'; wpos = 0 }

let writer_over b = { wbuf = b; wpos = 0 }

let writer_pos w = w.wpos
let writer_bytes w = w.wbuf

let check_write w n =
  if w.wpos + n > Bytes.length w.wbuf then
    fail "write of %d bytes at %d exceeds capacity %d" n w.wpos
      (Bytes.length w.wbuf)

let write_u8 w v =
  if v < 0 || v > 0xff then invalid_arg "Buf.write_u8: value out of range";
  check_write w 1;
  Bytes.unsafe_set w.wbuf w.wpos (Char.unsafe_chr v);
  w.wpos <- w.wpos + 1

let write_u16 w v =
  if v < 0 || v > 0xffff then invalid_arg "Buf.write_u16: value out of range";
  check_write w 2;
  Bytes.set_uint16_be w.wbuf w.wpos v;
  w.wpos <- w.wpos + 2

let write_u32 w v =
  if v < 0 || v > 0xffff_ffff then
    invalid_arg "Buf.write_u32: value out of range";
  check_write w 4;
  Bytes.set_int32_be w.wbuf w.wpos (Int32.of_int v);
  w.wpos <- w.wpos + 4

let write_u64 w v =
  check_write w 8;
  Bytes.set_int64_be w.wbuf w.wpos v;
  w.wpos <- w.wpos + 8

let write_bytes w b =
  let n = Bytes.length b in
  check_write w n;
  Bytes.blit b 0 w.wbuf w.wpos n;
  w.wpos <- w.wpos + n

let write_string w s =
  let n = String.length s in
  check_write w n;
  Bytes.blit_string s 0 w.wbuf w.wpos n;
  w.wpos <- w.wpos + n

let write_slice w s =
  let n = Slice.length s in
  check_write w n;
  Slice.blit s w.wbuf ~dst_off:w.wpos;
  w.wpos <- w.wpos + n

let write_zeros w n =
  if n < 0 then invalid_arg "Buf.write_zeros: negative length";
  check_write w n;
  Bytes.fill w.wbuf w.wpos n '\000';
  w.wpos <- w.wpos + n

let patch_u16 w ~pos v =
  if v < 0 || v > 0xffff then invalid_arg "Buf.patch_u16: value out of range";
  if pos < 0 || pos + 2 > w.wpos then
    fail "patch_u16 at %d outside written region [0,%d)" pos w.wpos;
  Bytes.set_uint16_be w.wbuf pos v

let contents w = Bytes.sub w.wbuf 0 w.wpos

let filled w =
  if not (Int.equal w.wpos (Bytes.length w.wbuf)) then
    fail "filled: %d bytes written of %d capacity" w.wpos
      (Bytes.length w.wbuf);
  w.wbuf

let written_slice w = Slice.make w.wbuf ~off:0 ~len:w.wpos

(* Reading *)

let reader b = { rbuf = b; rlimit = Bytes.length b; rpos = 0 }

let reader_of_slice s =
  {
    rbuf = s.Slice.base;
    rlimit = s.Slice.off + s.Slice.len;
    rpos = s.Slice.off;
  }

let sub_reader b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    fail "sub_reader [%d,%d) outside buffer of %d bytes" pos (pos + len)
      (Bytes.length b);
  { rbuf = b; rlimit = pos + len; rpos = pos }

let reader_pos r = r.rpos
let reader_bytes r = r.rbuf
let remaining r = r.rlimit - r.rpos

let narrow r ~len =
  if len < 0 || r.rpos + len > r.rlimit then
    fail "narrow of %d bytes at %d exceeds limit %d" len r.rpos r.rlimit;
  { rbuf = r.rbuf; rlimit = r.rpos + len; rpos = r.rpos }

let check_read r n =
  if r.rpos + n > r.rlimit then
    fail "read of %d bytes at %d exceeds limit %d" n r.rpos r.rlimit

let read_u8 r =
  check_read r 1;
  let v = Char.code (Bytes.unsafe_get r.rbuf r.rpos) in
  r.rpos <- r.rpos + 1;
  v

let read_u16 r =
  check_read r 2;
  let v = Bytes.get_uint16_be r.rbuf r.rpos in
  r.rpos <- r.rpos + 2;
  v

let read_u32 r =
  check_read r 4;
  let v = Int32.to_int (Bytes.get_int32_be r.rbuf r.rpos) land 0xffff_ffff in
  r.rpos <- r.rpos + 4;
  v

let read_u64 r =
  check_read r 8;
  let v = Bytes.get_int64_be r.rbuf r.rpos in
  r.rpos <- r.rpos + 8;
  v

let read_bytes r ~len =
  if len < 0 then invalid_arg "Buf.read_bytes: negative length";
  check_read r len;
  let b = Bytes.sub r.rbuf r.rpos len in
  r.rpos <- r.rpos + len;
  b

let read_slice r ~len =
  if len < 0 then invalid_arg "Buf.read_slice: negative length";
  check_read r len;
  let s = Slice.make r.rbuf ~off:r.rpos ~len in
  r.rpos <- r.rpos + len;
  s

let skip r ~len =
  if len < 0 then invalid_arg "Buf.skip: negative length";
  check_read r len;
  r.rpos <- r.rpos + len

let expect_end r =
  if remaining r <> 0 then fail "%d trailing bytes after parse" (remaining r)
