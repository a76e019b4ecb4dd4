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

(* CRC-32 (IEEE 802.3 polynomial, reflected), table-driven on native
   ints: every value fits in 32 bits, so nothing is boxed. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32 b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then invalid_arg "Page.crc32";
  let c = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    c :=
      Array.unsafe_get crc_table ((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let checksum p = crc32 p ~off:0 ~len:size
