let min_match = 4
let max_match = min_match + 0x7f (* 131 *)
let max_distance = 0xffff
let hash_bits = 13
let hash_size = 1 lsl hash_bits

let hash4 b i =
  let v =
    Char.code (Bytes.unsafe_get b i)
    lor (Char.code (Bytes.unsafe_get b (i + 1)) lsl 8)
    lor (Char.code (Bytes.unsafe_get b (i + 2)) lsl 16)
    lor (Char.code (Bytes.unsafe_get b (i + 3)) lsl 24)
  in
  (v * 2654435761) lsr (32 - hash_bits) land (hash_size - 1)

let compress src =
  let n = Bytes.length src in
  let out = Buffer.create (n / 2) in
  (* head.(h) = most recent position with hash h; prev.(i) = previous
     position in i's chain.  -1 terminates. *)
  let head = Array.make hash_size (-1) in
  let prev = Array.make (max n 1) (-1) in
  let lit_start = ref 0 in
  let flush_literals upto =
    (* emit pending literals [lit_start, upto) in runs of <= 128 *)
    let i = ref !lit_start in
    while !i < upto do
      let run = min 128 (upto - !i) in
      Buffer.add_char out (Char.chr (run - 1));
      Buffer.add_subbytes out src !i run;
      i := !i + run
    done;
    lit_start := upto
  in
  let insert i =
    if i + min_match <= n then begin
      let h = hash4 src i in
      prev.(i) <- head.(h);
      head.(h) <- i
    end
  in
  let match_len a b =
    let limit = min max_match (n - b) in
    let l = ref 0 in
    while !l < limit && Bytes.unsafe_get src (a + !l) = Bytes.unsafe_get src (b + !l) do
      incr l
    done;
    !l
  in
  let i = ref 0 in
  while !i < n do
    let best_len = ref 0 and best_pos = ref (-1) in
    if !i + min_match <= n then begin
      let h = hash4 src !i in
      let cand = ref head.(h) in
      let tries = ref 32 in
      while !cand >= 0 && !tries > 0 do
        if !i - !cand <= max_distance then begin
          let l = match_len !cand !i in
          if l > !best_len then begin
            best_len := l;
            best_pos := !cand
          end
        end;
        cand := prev.(!cand);
        decr tries
      done
    end;
    if !best_len >= min_match then begin
      flush_literals !i;
      Buffer.add_char out (Char.chr (0x80 lor (!best_len - min_match)));
      let dist = !i - !best_pos in
      Buffer.add_char out (Char.chr (dist land 0xff));
      Buffer.add_char out (Char.chr ((dist lsr 8) land 0xff));
      let stop = !i + !best_len in
      while !i < stop do
        insert !i;
        incr i
      done;
      lit_start := !i
    end
    else begin
      insert !i;
      incr i
    end
  done;
  flush_literals n;
  Buffer.to_bytes out

let decompress src =
  let n = Bytes.length src in
  let out = Buffer.create (n * 3) in
  let i = ref 0 in
  let corrupt msg = invalid_arg ("Compress.decompress: " ^ msg) in
  while !i < n do
    let ctrl = Char.code (Bytes.get src !i) in
    incr i;
    if ctrl < 0x80 then begin
      let run = ctrl + 1 in
      if !i + run > n then corrupt "literal run past end";
      Buffer.add_subbytes out src !i run;
      i := !i + run
    end
    else begin
      let len = (ctrl land 0x7f) + min_match in
      if !i + 2 > n then corrupt "truncated match";
      let dist =
        Char.code (Bytes.get src !i) lor (Char.code (Bytes.get src (!i + 1)) lsl 8)
      in
      i := !i + 2;
      let pos = Buffer.length out - dist in
      if dist = 0 || pos < 0 then corrupt "bad distance";
      (* Overlapping copies replicate recent output byte-by-byte. *)
      for k = 0 to len - 1 do
        Buffer.add_char out (Buffer.nth out (pos + k))
      done
    end
  done;
  Buffer.to_bytes out

let ratio src =
  let n = Bytes.length src in
  if n = 0 then 1.0
  else float_of_int (Bytes.length (compress src)) /. float_of_int n
