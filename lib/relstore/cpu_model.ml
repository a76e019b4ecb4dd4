(* Constants for a ~20 MIPS CPU: a fixed per-tuple path plus a per-byte
   copy term (several passes over the payload). *)
let write_base = 0.0009
let write_per_byte = 1.5e-7 (* ≈1.2 ms per 8 KB chunk *)
let read_base = 0.0004
let read_per_byte = 0.6e-7
let index_op = 0.0003

let charge clock account cost =
  let cost = cost *. Simclock.Clock.cpu_scale clock in
  if cost > 0. then Simclock.Clock.advance clock ~account cost

let charge_record_write clock ~bytes =
  charge clock "dbms.cpu" (write_base +. (float_of_int bytes *. write_per_byte))

let charge_record_read clock ~bytes =
  charge clock "dbms.cpu" (read_base +. (float_of_int bytes *. read_per_byte))

let charge_index_op clock = charge clock "dbms.cpu" index_op

let txn_overhead = 0.008

let charge_txn_overhead clock = charge clock "dbms.cpu" txn_overhead
