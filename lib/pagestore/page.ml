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

(* CRC-32 (IEEE 802.3 polynomial, reflected), on native ints: every
   value fits in 32 bits, so nothing is boxed.

   The register is linear over GF(2) in the bytes it has read, so two
   facts do all the work here.  Entry [k * 256 + n] of [crc_table] is
   the register after byte [n] followed by [k] zero bytes, so eight
   lookups fold one 8-byte word (slicing-by-8).  And running a register
   over [n] zero bytes multiplies it by x^(8n) modulo the polynomial,
   so a register can be moved past bytes it never read: [multmodp] and
   [x2n] are zlib's [crc32_combine] arithmetic, on polynomials stored
   reflected (bit 31 is x^0). *)
let poly = 0xEDB88320

(* a * b modulo the polynomial. *)
let multmodp a b =
  let m = ref (1 lsl 31) and p = ref 0 and b = ref b in
  while !m <> 0 do
    if a land !m <> 0 then p := !p lxor !b;
    (* stop once no lower bit of [a] is left *)
    if a land (!m - 1) = 0 then m := 0
    else begin
      m := !m lsr 1;
      b := if !b land 1 <> 0 then (!b lsr 1) lxor poly else !b lsr 1
    end
  done;
  !p

(* [x2n.(k)] is x^(2^k) modulo the polynomial, by squaring from x. *)
let x2n =
  let t = Array.make 32 (1 lsl 30) in
  for k = 1 to 31 do
    t.(k) <- multmodp t.(k - 1) t.(k - 1)
  done;
  t

(* A 1,024-entry table of a linear map on 32-bit registers, four
   256-entry byte slices, filled from the images of the 32 unit
   vectors: entry [k * 256 + n] is the image of [n lsl (8 * k)]. *)
let linear_table image =
  let t = Array.make 1024 0 in
  for k = 0 to 3 do
    for n = 1 to 255 do
      let low = n land -n in
      t.((k * 256) + n) <-
        (if n = low then image (n lsl (8 * k)) else t.((k * 256) + low) lxor t.((k * 256) + n - low))
    done
  done;
  t

let apply z c =
  Array.unsafe_get z (c land 0xFF)
  lxor Array.unsafe_get z (0x100 lor ((c lsr 8) land 0xFF))
  lxor Array.unsafe_get z (0x200 lor ((c lsr 16) land 0xFF))
  lxor Array.unsafe_get z (0x300 lor (c lsr 24))

(* [zeros.(j)] moves a register past 2^j zero bytes (x^(8 * 2^j) is
   [x2n.(j + 3)]), for every shift up to 16 KB; a longer one multiplies
   for its high bits. *)
let zeros = Array.init 14 (fun j -> linear_table (multmodp x2n.(j + 3)))

let shift_zeros c n =
  let c = ref c and n = ref n and j = ref 0 in
  while !n <> 0 do
    if !n land 1 <> 0 then
      c := if !j < Array.length zeros then apply zeros.(!j) !c else multmodp x2n.((!j + 3) land 31) !c;
    n := !n lsr 1;
    incr j
  done;
  !c

let crc_table =
  let t = Array.make 2048 0 in
  (* Slice 0 is linear in the byte: one byte-step per unit vector. *)
  let byte_step c = if c land 1 <> 0 then (c lsr 1) lxor poly else c lsr 1 in
  for j = 0 to 7 do
    let c = ref (1 lsl j) in
    for _ = 0 to 7 do
      c := byte_step !c
    done;
    t.(1 lsl j) <- !c
  done;
  for n = 1 to 255 do
    let low = n land -n in
    if n <> low then t.(n) <- t.(low) lxor t.(n - low)
  done;
  for i = 256 to 2047 do
    let prev = t.(i - 256) in
    t.(i) <- t.(prev land 0xFF) lxor (prev lsr 8)
  done;
  t

(* The kernel's two streams each take a 4 KB half of an 8 KB block;
   [join] moves the first one's register past the second half. *)
let half = 4096
let join = zeros.(12)

external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* The little-endian 32-bit word at [i], unchecked: [crc32] checks its
   whole range once. *)
let[@inline] word b i =
  Int32.to_int (if Sys.big_endian then swap32 (get32u b i) else get32u b i) land 0xFFFFFFFF

(* The register after the 8-byte word at [i]. *)
let[@inline] fold8 tbl c b i =
  let lo = c lxor word b i in
  let hi = word b (i + 4) in
  Array.unsafe_get tbl (0x700 lor (lo land 0xFF))
  lxor Array.unsafe_get tbl (0x600 lor ((lo lsr 8) land 0xFF))
  lxor Array.unsafe_get tbl (0x500 lor ((lo lsr 16) land 0xFF))
  lxor Array.unsafe_get tbl (0x400 lor (lo lsr 24))
  lxor Array.unsafe_get tbl (0x300 lor (hi land 0xFF))
  lxor Array.unsafe_get tbl (0x200 lor ((hi lsr 8) land 0xFF))
  lxor Array.unsafe_get tbl (0x100 lor ((hi lsr 16) land 0xFF))
  lxor Array.unsafe_get tbl (hi lsr 24)

(* Each 8 KB block runs as two independent streams, one per 4 KB half,
   so the processor overlaps their lookups: the first half continues
   the register, the second starts from zero, and the first's register
   moved past 4 KB of zeros, XORed with the second's, is the register
   after the whole block.  The rest runs as one stream, 8 bytes at a
   time, then a byte at a time. *)
let crc32 b ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length b then invalid_arg "Page.crc32";
  let tbl = crc_table in
  let c = ref 0xFFFFFFFF in
  let i = ref off in
  let blocks_end = off + (len land lnot ((2 * half) - 1)) in
  while !i < blocks_end do
    let a = ref !c and z = ref 0 in
    for w = 0 to (half / 8) - 1 do
      let j = !i + (8 * w) in
      a := fold8 tbl !a b j;
      z := fold8 tbl !z b (j + half)
    done;
    c := apply join !a lxor !z;
    i := !i + (2 * half)
  done;
  let words_end = !i + ((off + len - !i) land lnot 7) in
  while !i < words_end do
    c := fold8 tbl !c b !i;
    i := !i + 8
  done;
  for j = words_end to off + len - 1 do
    c :=
      Array.unsafe_get tbl ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(* CRC-32 is affine: XORing a string with [d] XORs its CRC with the
   register [d] alone drives from zero.  For a 4-byte [d] at [at] in a
   string of [len] bytes that is the register after [d]'s bytes, moved
   past the [len - at - 4] zero bytes behind them. *)
let crc32_xor_u32 crc ~len ~at v =
  if at < 0 || at + 4 > len then invalid_arg "Page.crc32_xor_u32";
  let tbl = crc_table in
  let r =
    Array.unsafe_get tbl (0x300 lor (v land 0xFF))
    lxor Array.unsafe_get tbl (0x200 lor ((v lsr 8) land 0xFF))
    lxor Array.unsafe_get tbl (0x100 lor ((v lsr 16) land 0xFF))
    lxor Array.unsafe_get tbl ((v lsr 24) land 0xFF)
  in
  crc lxor shift_zeros r (len - at - 4)

let crc32_zeroed b ~off ~len ~at =
  if at < off || at + 4 > off + len then invalid_arg "Page.crc32_zeroed";
  crc32_xor_u32 (crc32 b ~off ~len) ~len ~at:(at - off)
    (Int32.to_int (Bytes.get_int32_le b at) land 0xFFFFFFFF)

let checksum p = crc32 p ~off:0 ~len:size
