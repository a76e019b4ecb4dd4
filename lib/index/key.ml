let of_int64 v =
  if Int64.compare v 0L < 0 then invalid_arg "Key.of_int64: negative";
  let b = Bytes.create 8 in
  Bytes.set_int64_be b 0 v;
  Bytes.unsafe_to_string b

let to_int64 s =
  if String.length s < 8 then invalid_arg "Key.to_int64: too short";
  Bytes.get_int64_be (Bytes.of_string s) 0

let of_int v = of_int64 (Int64.of_int v)

let dir_name ~parentid ~name =
  let b = Bytes.create 12 in
  Bytes.set_int64_be b 0 parentid;
  let crc = Pagestore.Page.crc32 (Bytes.unsafe_of_string name) ~off:0 ~len:(String.length name) in
  Bytes.set_int32_be b 8 (Int32.of_int crc);
  Bytes.unsafe_to_string b

let dir_prefix_lo ~parentid = of_int64 parentid ^ "\x00\x00\x00\x00"
let dir_prefix_hi ~parentid = of_int64 parentid ^ "\xff\xff\xff\xff"
let max_key ~width = String.make width '\xff'
