type t = { fs : Fs.t; session : Fs.session }
type descriptor = Fs.fd

let lo_dir = "/.largeobjects"

let manager fs =
  let session = Fs.new_session fs in
  if not (Fs.exists session lo_dir) then Fs.mkdir session ~owner:"postgres" lo_dir;
  { fs; session }

let session t = t.session

let lo_name oid = Printf.sprintf "%s/lo_%Ld" lo_dir oid

let lo_creat t () =
  let fd = Fs.p_creat t.session ~owner:"postgres" (Printf.sprintf "%s/pending" lo_dir) in
  let oid = Fs.fd_oid t.session fd in
  Fs.p_close t.session fd;
  (* name the object by its own oid, so the fs view is stable *)
  Fs.rename t.session (Printf.sprintf "%s/pending" lo_dir) (lo_name oid);
  oid

let lo_of_path t path = Fs.lookup_oid t.session path

let path_of t ?timestamp oid =
  match Fs.path_of_oid t.session ?timestamp oid with
  | Some p -> p
  | None -> Errors.fail Errors.ENOENT "no object with oid %Ld" oid

let lo_open t ?timestamp oid =
  let mode = match timestamp with Some _ -> Fs.Rdonly | None -> Fs.Rdwr in
  Fs.p_open t.session ?timestamp (path_of t ?timestamp oid) mode

let lo_close t fd = Fs.p_close t.session fd
let lo_read t fd buf len = Fs.p_read t.session fd buf len
let lo_write t fd buf len = Fs.p_write t.session fd buf len
let lo_seek t fd off whence = Fs.p_lseek t.session fd off whence
let lo_tell t fd = Fs.p_tell t.session fd
let lo_unlink t oid = Fs.unlink t.session (path_of t oid)

let lo_size t ?timestamp oid =
  (Fs.stat t.session ?timestamp (path_of t ?timestamp oid)).Fileatt.size

let lo_export t oid path =
  Fs.write_file t.session path (Fs.read_whole_file t.session (path_of t oid))

let lo_import t path = lo_of_path t path
