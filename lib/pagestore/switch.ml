type t = {
  clock : Simclock.Clock.t;
  table : (string, Device.t) Hashtbl.t;
  mutable order : Device.t list; (* reverse registration order *)
  mutable mirror_pairs : (string * string) list; (* (primary, secondary), oldest first *)
}

let create ~clock = { clock; table = Hashtbl.create 8; order = []; mirror_pairs = [] }

let clock t = t.clock

let register t dev =
  let name = Device.name dev in
  if Hashtbl.mem t.table name then
    invalid_arg (Printf.sprintf "Switch.register: duplicate device %s" name);
  Hashtbl.replace t.table name dev;
  t.order <- dev :: t.order

let add_device t ~name ~kind () =
  let dev = Device.create ~clock:t.clock ~name ~kind () in
  register t dev;
  dev

let find t name =
  match Hashtbl.find_opt t.table name with
  | Some dev -> dev
  | None -> raise Not_found

let find_opt t name = Hashtbl.find_opt t.table name

let devices t = List.rev t.order

let default_device t =
  match List.rev t.order with
  | dev :: _ -> dev
  | [] -> failwith "Switch.default_device: no devices registered"

let mirror t ~primary ~secondary =
  if primary = secondary then
    invalid_arg (Printf.sprintf "Switch.mirror: %s cannot mirror itself" primary);
  let lookup role name =
    match find_opt t name with
    | Some dev -> dev
    | None -> invalid_arg (Printf.sprintf "Switch.mirror: %s device %s is not registered" role name)
  in
  let p = lookup "primary" primary in
  let s = lookup "secondary" secondary in
  Device.attach_mirror p s;
  t.mirror_pairs <- t.mirror_pairs @ [ (primary, secondary) ]

let mirror_of t name =
  match find_opt t name with Some dev -> Device.mirror dev | None -> None

let mirror_pairs t = t.mirror_pairs

let crash t = List.iter Device.crash (devices t)
