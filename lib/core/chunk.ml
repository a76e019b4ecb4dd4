type t = {
  chunkno : int64;
  compressed : bool;
  uncompressed_len : int;
  data : bytes;
}

let header_size = 18
let capacity = Relstore.Heap_page.max_payload - header_size


let encode t =
  let len = Bytes.length t.data in
  if len > capacity then invalid_arg "Chunk.encode: data exceeds chunk capacity";
  let b = Bytes.create (header_size + len) in
  Bytes.set_int64_le b 0 t.chunkno;
  Bytes.set_int32_le b 8 (Int32.of_int len);
  Bytes.set_uint16_le b 12 (if t.compressed then 1 else 0);
  Bytes.set_int32_le b 14 (Int32.of_int t.uncompressed_len);
  Bytes.blit t.data 0 b header_size len;
  b

let peek_chunkno b =
  if Bytes.length b < header_size then invalid_arg "Chunk.peek_chunkno: truncated header";
  Bytes.get_int64_le b 0

let holds ~chunkno v = Relstore.Heap_page.payload_i64_is v ~at:0 chunkno

let decode b =
  if Bytes.length b < header_size then invalid_arg "Chunk.decode: truncated header";
  let chunkno = Bytes.get_int64_le b 0 in
  let len = Int32.to_int (Bytes.get_int32_le b 8) in
  if Bytes.length b <> header_size + len then invalid_arg "Chunk.decode: length mismatch";
  let flags = Bytes.get_uint16_le b 12 in
  let uncompressed_len = Int32.to_int (Bytes.get_int32_le b 14) in
  {
    chunkno;
    compressed = flags land 1 = 1;
    uncompressed_len;
    data = Bytes.sub b header_size len;
  }

let make_plain ~chunkno data =
  { chunkno; compressed = false; uncompressed_len = Bytes.length data; data }

let make_compressed ~chunkno ~uncompressed_len data =
  { chunkno; compressed = true; uncompressed_len; data }
