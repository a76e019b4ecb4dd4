type t = bytes

let size = 8192

let create () = Bytes.make size '\000'

let copy p = Bytes.copy p

let of_bytes b =
  let p = create () in
  Bytes.blit b 0 p 0 (min (Bytes.length b) size);
  p

let to_bytes p = Bytes.copy p
let raw p = p

let check off len =
  if off < 0 || off + len > size then invalid_arg "Page: offset out of bounds"

let get_u8 p off =
  check off 1;
  Char.code (Bytes.get p off)

let set_u8 p off v =
  check off 1;
  Bytes.set p off (Char.chr (v land 0xff))

let get_u16 p off =
  check off 2;
  Bytes.get_uint16_le p off

let set_u16 p off v =
  check off 2;
  Bytes.set_uint16_le p off (v land 0xffff)

let get_u32 p off =
  check off 4;
  Int32.to_int (Bytes.get_int32_le p off) land 0xffffffff

let set_u32 p off v =
  check off 4;
  Bytes.set_int32_le p off (Int32.of_int v)

let get_i64 p off =
  check off 8;
  Bytes.get_int64_le p off

let set_i64 p off v =
  check off 8;
  Bytes.set_int64_le p off v

let blit_in p off src srcoff len =
  check off len;
  Bytes.blit src srcoff p off len

let blit_out p off dst dstoff len =
  check off len;
  Bytes.blit p off dst dstoff len

let get_string p off len =
  check off len;
  Bytes.sub_string p off len

let set_string p off s =
  check off (String.length s);
  Bytes.blit_string s 0 p off (String.length s)

let clear p = Bytes.fill p 0 size '\000'

(* CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8 on native
   ints: every value fits in 32 bits, so nothing is boxed.  Entry
   [k * 256 + n] of [crc_table] is the CRC register after byte [n]
   followed by [k] zero bytes, so eight table lookups fold one 8-byte
   word; the byte-wise loop (slice 0 alone) finishes the tail. *)
let crc_table =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 2047 do
    let prev = t.(i - 256) in
    t.(i) <- t.(prev land 0xFF) lxor (prev lsr 8)
  done;
  t

let crc32 b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then invalid_arg "Page.crc32";
  let tbl = crc_table in
  let c = ref 0xFFFFFFFF in
  let i = ref off in
  let words_end = off + (len land lnot 7) in
  while !i < words_end do
    let lo = !c lxor (Int32.to_int (Bytes.get_int32_le b !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xFFFFFFFF in
    c :=
      Array.unsafe_get tbl (0x700 lor (lo land 0xFF))
      lxor Array.unsafe_get tbl (0x600 lor ((lo lsr 8) land 0xFF))
      lxor Array.unsafe_get tbl (0x500 lor ((lo lsr 16) land 0xFF))
      lxor Array.unsafe_get tbl (0x400 lor (lo lsr 24))
      lxor Array.unsafe_get tbl (0x300 lor (hi land 0xFF))
      lxor Array.unsafe_get tbl (0x200 lor ((hi lsr 8) land 0xFF))
      lxor Array.unsafe_get tbl (0x100 lor ((hi lsr 16) land 0xFF))
      lxor Array.unsafe_get tbl (hi lsr 24);
    i := !i + 8
  done;
  for j = words_end to off + len - 1 do
    c :=
      Array.unsafe_get tbl ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let checksum p = crc32 p ~off:0 ~len:size
