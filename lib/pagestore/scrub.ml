type stats = {
  scanned : int;
  clean : int;
  repaired : int;
  unrepairable : (string * int * int * string) list;
}

let empty_stats = { scanned = 0; clean = 0; repaired = 0; unrepairable = [] }

type t = {
  switch : Switch.t;
  mutable pos : int; (* cursor into the flattened block walk *)
}

let create switch = { switch; pos = 0 }

(* Scrub verification streams sequentially in the background, so it is
   charged a flat per-page cost rather than the foreground seek model. *)
let verify_cost_s = 0.0005

(* Secondaries are walked with their primary (so a bad copy on either side
   can be repaired from the other); dead devices cannot answer a scrub.
   The plan is per-segment summaries — (device, segid, length) — not a
   materialized list of every block: planning a step is O(#segments), and
   the cursor is mapped to a block by walking segment lengths. *)
let plan t =
  let secondaries =
    List.filter_map (fun (_, s) -> Option.map Device.name (Switch.find_opt t.switch s))
      (Switch.mirror_pairs t.switch)
  in
  let segs =
    List.concat_map
      (fun dev ->
        if Device.is_dead dev || List.mem (Device.name dev) secondaries then []
        else
          List.map (fun segid -> (dev, segid, Device.nblocks dev segid))
            (Device.segments dev))
      (Switch.devices t.switch)
  in
  let total = List.fold_left (fun acc (_, _, n) -> acc + n) 0 segs in
  (segs, total)

(* The flattened walk order is segments in plan order, blocks 0..n-1
   within each — identical to the old explicit per-block list. *)

let scrub_block t dev ~segid ~blkno =
  let clock = Switch.clock t.switch in
  Simclock.Clock.advance clock ~account:"scrub.verify" verify_cost_s;
  match Resilient.verify_or_repair dev ~segid ~blkno with
  | `Unrepairable _ as u -> u
  | (`Clean | `Repaired) as primary_verdict -> (
    match Device.segment_mirror dev ~segid with
    | Some (mdev, msegid) when not (Device.is_dead mdev) -> (
      Simclock.Clock.advance clock ~account:"scrub.verify" verify_cost_s;
      match Device.verify_block mdev ~segid:msegid ~blkno with
      | Ok () -> primary_verdict
      | Error reason -> (
        (* The mirror copy rotted; refresh it from the (verified) primary. *)
        try
          let page = Page.create () in
          Resilient.read_block dev ~segid ~blkno page;
          Device.poke_block mdev ~segid:msegid ~blkno page;
          `Repaired
        with Device.Media_failure _ | Device.Io_fault _ -> `Unrepairable reason))
    | _ -> primary_verdict)

let step t ~pages =
  let segs, total = plan t in
  let step_stats = ref empty_stats in
  if total > 0 then begin
    if t.pos >= total then t.pos <- t.pos mod total;
    (* Locate the cursor once, then stream: each page advances within the
       current segment or steps to the next, wrapping to the plan head.
       Skipping to the next non-empty segment first keeps the invariant
       that the cursor head always has a block left. *)
    let cursor = ref segs and blkno = ref 0 in
    let rec normalize () =
      match !cursor with
      | [] ->
        cursor := segs;
        blkno := 0;
        normalize ()
      | (_, _, n) :: tail ->
        if !blkno >= n then begin
          cursor := tail;
          blkno := 0;
          normalize ()
        end
    in
    let rec seek_start segs pos =
      match segs with
      | [] -> assert false
      | (_, _, n) :: tail as all ->
        if pos < n then begin
          cursor := all;
          blkno := pos
        end
        else seek_start tail (pos - n)
    in
    seek_start segs t.pos;
    for _ = 1 to min pages total do
      normalize ();
      let dev, segid, blk =
        match !cursor with
        | (dev, segid, _) :: _ -> (dev, segid, !blkno)
        | [] -> assert false
      in
      blkno := !blkno + 1;
      t.pos <- (t.pos + 1) mod total;
      let verdict =
        try scrub_block t dev ~segid ~blkno:blk
        with Invalid_argument _ -> `Clean (* segment dropped since the walk was planned *)
      in
      let s = !step_stats in
      step_stats :=
        (match verdict with
        | `Clean -> { s with scanned = s.scanned + 1; clean = s.clean + 1 }
        | `Repaired -> { s with scanned = s.scanned + 1; repaired = s.repaired + 1 }
        | `Unrepairable reason ->
          {
            s with
            scanned = s.scanned + 1;
            unrepairable = s.unrepairable @ [ (Device.name dev, segid, blk, reason) ];
          })
    done
  end;
  !step_stats

let run switch =
  let t = create switch in
  let _, total = plan t in
  step t ~pages:total
