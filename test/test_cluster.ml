(* The sharded fleet: placement routing, lease self-fencing ordered
   before coordinator failover (no split brain), epoch fencing rejecting
   stale writes after failover, and crash-restartable idempotent
   handoff. *)

module Fs = Invfs.Fs
module E = Invfs.Errors
module Wire = Remote.Wire
module Server = Remote.Server
module Client = Remote.Client
module Cluster = Remote.Cluster
module Link = Netsim.Link
module Clock = Simclock.Clock
module Rng = Simclock.Rng

let mk ?(nshards = 3) ?(nbuckets = 8) ?(hb = 0.2) () =
  let clock = Clock.create () in
  let net = Netsim.create ~clock Netsim.tcp_1993 in
  let rng = Rng.create 7L in
  let cluster = Cluster.create ~clock ~net ~rng ~nshards ~nbuckets ~hb_interval:hb () in
  let conn = Cluster.connect cluster ~rng:(Rng.split rng) () in
  (clock, net, cluster, conn)

(* Advance simulated time in heartbeat-sized steps, pumping the cluster
   so leases stay fresh (or expire) exactly as they would in a run. *)
let tick clock cluster ~step n =
  for _ = 1 to n do
    Clock.advance clock ~account:"test.cluster" step;
    Cluster.pump cluster
  done

let settle clock cluster =
  let rec go k =
    Cluster.pump cluster;
    let s = Cluster.stats cluster in
    if (s.Cluster.handoffs_pending > 0 || s.Cluster.drops_pending > 0) && k < 200
    then begin
      Clock.advance clock ~account:"test.cluster" 0.1;
      go (k + 1)
    end
  in
  go 0

(* Create files through the coordinator until one's oid hashes to a
   bucket owned by [shard] in the current placement; return (oid, bucket). *)
let name_seq = ref 0

let file_on conn cluster ~shard =
  let coord = Cluster.coord conn in
  let pl = Client.c_get_placement coord in
  let rec go i =
    if i > 200 then Alcotest.fail "no file landed on the wanted shard";
    incr name_seq;
    let path = Printf.sprintf "/on%d-%d" shard !name_seq in
    let fd = Client.c_creat coord path in
    Client.c_close coord fd;
    let oid = (Client.c_stat coord path).Invfs.Fileatt.file in
    let b = Wire.bucket_of ~nbuckets:(Cluster.nbuckets cluster) oid in
    if pl.Wire.p_owner.(b) = shard then (oid, b) else go (i + 1)
  in
  go 0

let direct_client cluster net ~shard =
  let link = Link.create net in
  Client.connect ~server:(Cluster.member_server cluster shard) ~link
    ~rng:(Rng.create (Int64.of_int (100 + shard)))
    ()

let expect_estale f =
  match f () with
  | _ -> Alcotest.fail "expected ESTALE"
  | exception E.Fs_error (E.ESTALE, _) -> ()

(* ---- routing smoke: data plane reaches the owning shard ---- *)

let test_routing () =
  let _clock, _net, cluster, conn = mk () in
  let oid, _ = file_on conn cluster ~shard:2 in
  Alcotest.(check int) "write len" 5 (Cluster.shard_write conn ~oid ~off:0L ~data:"hello");
  Alcotest.(check string) "read back" "hello" (Cluster.shard_read conn ~oid ~off:0L ~len:32);
  Alcotest.(check string) "authoritative copy" "hello" (Cluster.peek_data cluster ~oid);
  Cluster.shard_truncate conn ~oid ~size:2L;
  Alcotest.(check string) "after shrink" "he" (Cluster.shard_read conn ~oid ~off:0L ~len:32);
  let oid2, _ = file_on conn cluster ~shard:1 in
  Alcotest.(check string) "absent chunk reads sparse-empty" ""
    (Cluster.shard_read conn ~oid:oid2 ~off:0L ~len:32);
  let s = Cluster.stats cluster in
  Alcotest.(check bool) "heartbeats flowed" true (s.Cluster.heartbeats_seen > 0);
  Alcotest.(check int) "no fences in quiet run" 0 s.Cluster.fence_events

(* ---- the no-split-brain ordering, then epoch fencing ----

   Cut shard 1's heartbeat path.  First the shard's own lease expires
   and it refuses even correctly-addressed writes (self-fence) while the
   coordinator has NOT yet declared it dead; only after [dead_after] —
   strictly later — does the epoch advance and ownership move.  Then a
   write carrying the pre-failover epoch is refused by the new owner:
   the stale cohort cannot touch post-failover data. *)

let test_fencing_ordering_and_failover () =
  let clock, net, cluster, conn = mk ~hb:0.2 () in
  (* defaults: lease = 0.4, dead_after = 0.8 *)
  let oid, b = file_on conn cluster ~shard:1 in
  Alcotest.(check int) "seed write" 3 (Cluster.shard_write conn ~oid ~off:0L ~data:"v1!");
  let direct = direct_client cluster net ~shard:1 in
  Alcotest.(check int) "direct write at live lease, exact epoch" 3
    (Client.c_shard_write direct ~oid ~off:0L ~data:"v2!" ~epoch:1);
  Cluster.set_partitioned cluster ~shard:1 true;
  (* past the lease, short of dead_after: the shard has self-fenced
     while the coordinator still holds epoch 1 *)
  tick clock cluster ~step:0.1 5;
  let s = Cluster.stats cluster in
  Alcotest.(check int) "coordinator has not fenced yet" 0 s.Cluster.fence_events;
  Alcotest.(check int) "epoch still 1" 1 s.Cluster.epoch;
  expect_estale (fun () -> Client.c_shard_write direct ~oid ~off:0L ~data:"split" ~epoch:1);
  let s = Cluster.stats cluster in
  Alcotest.(check bool) "self-fence counted" true (s.Cluster.stale_rejects > 0);
  (* now past dead_after: failover *)
  tick clock cluster ~step:0.1 6;
  settle clock cluster;
  let s = Cluster.stats cluster in
  Alcotest.(check bool) "failover declared" true (s.Cluster.fence_events >= 1);
  Alcotest.(check bool) "epoch advanced" true (s.Cluster.epoch >= 2);
  Alcotest.(check int) "handoffs drained" 0 s.Cluster.handoffs_pending;
  (* the moved copy is intact and authoritative *)
  Alcotest.(check string) "copy moved intact" "v2!" (Cluster.peek_data cluster ~oid);
  (* a stale-epoch write is refused by the new owner *)
  let pl = Client.c_get_placement (Cluster.coord conn) in
  let new_owner = pl.Wire.p_owner.(b) in
  Alcotest.(check bool) "ownership moved off shard 1" true (new_owner <> 1);
  let to_new = direct_client cluster net ~shard:new_owner in
  expect_estale (fun () ->
      Client.c_shard_write to_new ~oid ~off:0L ~data:"old epoch" ~epoch:1);
  (* the conn's cached epoch is stale too: it redirects and succeeds *)
  Alcotest.(check int) "post-failover write through redirect" 3
    (Cluster.shard_write conn ~oid ~off:0L ~data:"v3!");
  Alcotest.(check bool) "redirects happened" true (Cluster.redirects conn >= 1);
  Alcotest.(check string) "post-failover read" "v3!"
    (Cluster.shard_read conn ~oid ~off:0L ~len:32);
  (* heal: shard 1 re-arms from heartbeats, stale copies get dropped *)
  Cluster.set_partitioned cluster ~shard:1 false;
  tick clock cluster ~step:0.1 6;
  settle clock cluster;
  let s = Cluster.stats cluster in
  Alcotest.(check int) "drops drained" 0 s.Cluster.drops_pending;
  Alcotest.(check bool) "stale copy garbage-collected" true (s.Cluster.drops_done >= 1);
  Alcotest.(check string) "still correct after heal" "v3!" (Cluster.peek_data cluster ~oid);
  let audit = Cluster.cross_shard_audit cluster in
  Alcotest.(check bool)
    ("cross-shard audit after failover: " ^ Invfs.Fsck.shard_report_to_string audit)
    true
    (Invfs.Fsck.is_shard_clean audit)

(* ---- handoff is idempotent and crash-restartable ----

   Two files share one bucket on the doomed shard.  The migrate hook
   crashes the coordinator mid-handoff (after the first file has already
   been pushed) and abandons the pass: the durable handoff entry drives
   a full redo, re-pushing file one — the whole-copy overwrite must make
   that harmless.  Then the same Migrate_in is replayed by hand against
   the committed state, and a stale-epoch Migrate_in is refused. *)

let test_handoff_idempotent_under_crash () =
  let clock, net, cluster, conn = mk ~nbuckets:4 ~hb:0.2 () in
  let oid1, b1 = file_on conn cluster ~shard:1 in
  let rec second () =
    let oid, b = file_on conn cluster ~shard:1 in
    if b = b1 && oid <> oid1 then oid else second ()
  in
  let oid2 = second () in
  ignore (Cluster.shard_write conn ~oid:oid1 ~off:0L ~data:"first file" : int);
  ignore (Cluster.shard_write conn ~oid:oid2 ~off:0L ~data:"second file" : int);
  let calls = ref 0 in
  Cluster.set_on_migrate cluster
    (Some
       (fun ~oid:_ ~bucket:_ ->
         incr calls;
         if !calls = 2 then begin
           (* mid-handoff, between fetch and push of the second file *)
           Cluster.crash_member cluster 0;
           raise Exit
         end));
  Cluster.set_partitioned cluster ~shard:1 true;
  tick clock cluster ~step:0.1 11;
  settle clock cluster;
  Cluster.set_on_migrate cluster None;
  let s = Cluster.stats cluster in
  Alcotest.(check bool) "failover happened" true (s.Cluster.fence_events >= 1);
  Alcotest.(check int) "handoffs drained" 0 s.Cluster.handoffs_pending;
  Alcotest.(check bool) "hook saw a redo" true (!calls >= 3);
  (* the first file was pushed once before the crash and again on redo *)
  Alcotest.(check bool) "a migration was repeated" true (s.Cluster.migrations >= 3);
  Alcotest.(check bool) "coordinator really crashed" true
    (Server.crashes (Cluster.member_server cluster 0) >= 1);
  Alcotest.(check string) "file one intact" "first file" (Cluster.peek_data cluster ~oid:oid1);
  Alcotest.(check string) "file two intact" "second file" (Cluster.peek_data cluster ~oid:oid2);
  (* replaying the push by hand is a no-op change-wise... *)
  let pl = Client.c_get_placement (Cluster.coord conn) in
  let owner = pl.Wire.p_owner.(b1) in
  let to_owner = direct_client cluster net ~shard:owner in
  Client.c_migrate_in to_owner ~oid:oid1 ~epoch:pl.Wire.p_epoch ~data:"first file";
  Alcotest.(check string) "replayed migrate is idempotent" "first file"
    (Cluster.peek_data cluster ~oid:oid1);
  (* ...and a stale-epoch push is fenced out *)
  expect_estale (fun () ->
      Client.c_migrate_in to_owner ~oid:oid1 ~epoch:(pl.Wire.p_epoch - 1) ~data:"zombie");
  Alcotest.(check string) "zombie push refused" "first file"
    (Cluster.peek_data cluster ~oid:oid1);
  (* reads through the fleet agree after everything *)
  Alcotest.(check string) "read one" "first file"
    (Cluster.shard_read conn ~oid:oid1 ~off:0L ~len:64);
  Alcotest.(check string) "read two" "second file"
    (Cluster.shard_read conn ~oid:oid2 ~off:0L ~len:64)

(* ---- failing back a bucket cancels the garbage drop aimed at it ----

   The data-loss scenario: shard 1's copy of bucket [b] is queued for a
   garbage drop after a failover moved the bucket to shard 2, but the
   drop cannot execute (here: the admin link eats every frame, standing
   in for a faulted path — the shard itself still heartbeats fine).
   Shard 2 then dies and the bucket fails back to shard 1.  The pending
   drop now aims at the owning copy: the coordinator must cancel it at
   fence time, and the shard must refuse any delayed copy that still
   arrives — otherwise the authoritative data is deleted. *)

let test_failback_cancels_pending_drop () =
  let clock, _net, cluster, conn = mk ~nshards:2 ~nbuckets:4 ~hb:0.2 () in
  let block = ref false in
  let admin1 = List.assoc 1 (Cluster.internal_links cluster) in
  Link.set_fault_hook admin1
    (Some (fun _dir ~bytes:_ -> if !block then Some Link.Drop else None));
  let oid, _b = file_on conn cluster ~shard:1 in
  ignore (Cluster.shard_write conn ~oid ~off:0L ~data:"precious" : int);
  (* failover #1: shard 1 dead, its buckets move to shard 2.  The drop
     of shard 1's stale copies stays pending: shard 1's placement map is
     stale (it still believes it owns the bucket), so its own owner
     guard refuses the drop until it learns otherwise. *)
  Cluster.set_partitioned cluster ~shard:1 true;
  tick clock cluster ~step:0.1 11;
  let s = Cluster.stats cluster in
  Alcotest.(check bool) "first failover declared" true (s.Cluster.fence_events >= 1);
  Alcotest.(check int) "handoffs drained" 0 s.Cluster.handoffs_pending;
  Alcotest.(check bool) "drop for shard 1's copy pending" true
    (s.Cluster.drops_pending >= 1);
  Alcotest.(check int) "no drop executed against a stale map" 0 s.Cluster.drops_done;
  (* heal shard 1 (it learns the new map, so only the dead admin link
     keeps the drop pending now) and kill shard 2 *)
  block := true;
  Cluster.set_partitioned cluster ~shard:1 false;
  Cluster.set_partitioned cluster ~shard:2 true;
  tick clock cluster ~step:0.1 12;
  let s = Cluster.stats cluster in
  Alcotest.(check bool) "failback declared" true (s.Cluster.fence_events >= 2);
  (* the fence that handed the buckets back canceled the drops aimed at
     the new owner (fresh drops aimed at shard 2's garbage may remain) *)
  let drops_on_owner =
    match Server.role (Cluster.member_server cluster 0) with
    | Server.Coordinator c ->
      List.length (List.filter (fun (_, sh) -> sh = 1) c.Server.c_drops)
    | Server.Standalone | Server.Shard _ -> -1
  in
  Alcotest.(check int) "pending drops on the new owner canceled" 0 drops_on_owner;
  (* let the redo handoff land, then let shard 2's garbage go *)
  block := false;
  settle clock cluster;
  Cluster.set_partitioned cluster ~shard:2 false;
  tick clock cluster ~step:0.1 6;
  settle clock cluster;
  Alcotest.(check string) "authoritative copy survived the failback" "precious"
    (Cluster.peek_data cluster ~oid);
  Alcotest.(check string) "readable through the fleet" "precious"
    (Cluster.shard_read conn ~oid ~off:0L ~len:64);
  let audit = Cluster.cross_shard_audit cluster in
  Alcotest.(check bool)
    ("audit after failback: " ^ Invfs.Fsck.shard_report_to_string audit)
    true
    (Invfs.Fsck.is_shard_clean audit)

(* ---- chained failover garbage-collects the abandoned destination ----

   A handoff stalls with one of two files already pushed to its
   destination; then the destination itself dies and the handoff is
   retargeted.  The partial copies on the abandoned destination must get
   a garbage-drop entry — nothing else ever cleans them, and the
   cross-shard audit has no excuse for them otherwise. *)

let test_chained_failover_drops_abandoned_dst () =
  let clock, _net, cluster, conn = mk ~nshards:3 ~nbuckets:4 ~hb:0.2 () in
  let oid1, b1 = file_on conn cluster ~shard:1 in
  let rec second () =
    let oid, b = file_on conn cluster ~shard:1 in
    if b = b1 && oid <> oid1 then oid else second ()
  in
  let oid2 = second () in
  ignore (Cluster.shard_write conn ~oid:oid1 ~off:0L ~data:"file one" : int);
  ignore (Cluster.shard_write conn ~oid:oid2 ~off:0L ~data:"file two" : int);
  (* per bucket: let the first file through, stall on any second one *)
  let stall = ref true in
  let pushed = Hashtbl.create 4 in
  Cluster.set_on_migrate cluster
    (Some
       (fun ~oid ~bucket ->
         if !stall then
           match Hashtbl.find_opt pushed bucket with
           | None -> Hashtbl.replace pushed bucket oid
           | Some o when o = oid -> ()
           | Some _ -> raise Exit));
  Cluster.set_partitioned cluster ~shard:1 true;
  tick clock cluster ~step:0.1 11;
  let s = Cluster.stats cluster in
  Alcotest.(check bool) "first failover declared" true (s.Cluster.fence_events >= 1);
  Alcotest.(check bool) "two-file handoff is stalled" true
    (s.Cluster.handoffs_pending >= 1);
  let d0 = (Client.c_get_placement (Cluster.coord conn)).Wire.p_owner.(b1) in
  Alcotest.(check bool) "bucket moved off shard 1" true (d0 <> 1);
  (* the mid-handoff destination dies: chained failover *)
  Cluster.set_partitioned cluster ~shard:d0 true;
  tick clock cluster ~step:0.1 11;
  let s = Cluster.stats cluster in
  Alcotest.(check bool) "chained failover declared" true (s.Cluster.fence_events >= 2);
  let d1 = (Client.c_get_placement (Cluster.coord conn)).Wire.p_owner.(b1) in
  Alcotest.(check bool) "retargeted off both dead shards" true (d1 <> 1 && d1 <> d0);
  (* release the stall, let the retargeted handoff finish, then heal the
     dead shards so the garbage drops (abandoned destination included)
     can execute *)
  stall := false;
  settle clock cluster;
  Cluster.set_on_migrate cluster None;
  Cluster.set_partitioned cluster ~shard:1 false;
  Cluster.set_partitioned cluster ~shard:d0 false;
  tick clock cluster ~step:0.1 6;
  settle clock cluster;
  let s = Cluster.stats cluster in
  Alcotest.(check int) "handoffs drained" 0 s.Cluster.handoffs_pending;
  Alcotest.(check int) "drops drained" 0 s.Cluster.drops_pending;
  Alcotest.(check bool) "abandoned partial copy was garbage-collected" true
    (s.Cluster.drops_done >= 2);
  Alcotest.(check string) "file one intact" "file one" (Cluster.peek_data cluster ~oid:oid1);
  Alcotest.(check string) "file two intact" "file two" (Cluster.peek_data cluster ~oid:oid2);
  let audit = Cluster.cross_shard_audit cluster in
  Alcotest.(check bool)
    ("audit after chained failover: " ^ Invfs.Fsck.shard_report_to_string audit)
    true
    (Invfs.Fsck.is_shard_clean audit)

(* ---- failing back to a handoff's source keeps the source's copy ----

   A handoff off shard 1 stalls with only one of two files pushed; then
   shard 1 returns and every other shard dies, so the bucket fails back
   to shard 1.  The source still holds the one complete copy: there is
   nothing to hand off, and no drop may be queued against it. *)

let test_failback_to_handoff_source () =
  let clock, _net, cluster, conn = mk ~nshards:3 ~nbuckets:4 ~hb:0.2 () in
  let oid1, b1 = file_on conn cluster ~shard:1 in
  let rec second () =
    let oid, b = file_on conn cluster ~shard:1 in
    if b = b1 && oid <> oid1 then oid else second ()
  in
  let oid2 = second () in
  ignore (Cluster.shard_write conn ~oid:oid1 ~off:0L ~data:"file one" : int);
  ignore (Cluster.shard_write conn ~oid:oid2 ~off:0L ~data:"file two" : int);
  let pushed = ref [] in
  Cluster.set_on_migrate cluster
    (Some
       (fun ~oid ~bucket ->
         if bucket = b1 then begin
           if !pushed <> [] && not (List.mem oid !pushed) then raise Exit;
           pushed := oid :: !pushed
         end));
  Cluster.set_partitioned cluster ~shard:1 true;
  tick clock cluster ~step:0.1 11;
  let owner () = (Client.c_get_placement (Cluster.coord conn)).Wire.p_owner.(b1) in
  Alcotest.(check bool) "bucket moved off shard 1" true (owner () <> 1);
  Alcotest.(check bool) "its handoff is stalled" true
    ((Cluster.stats cluster).Cluster.handoffs_pending >= 1);
  Cluster.set_partitioned cluster ~shard:1 false;
  List.iter (fun sh -> Cluster.set_partitioned cluster ~shard:sh true) [ 2; 3 ];
  tick clock cluster ~step:0.1 11;
  Alcotest.(check int) "failed back to the source" 1 (owner ());
  Cluster.set_on_migrate cluster None;
  List.iter (fun sh -> Cluster.set_partitioned cluster ~shard:sh false) [ 2; 3 ];
  tick clock cluster ~step:0.1 6;
  settle clock cluster;
  let s = Cluster.stats cluster in
  Alcotest.(check int) "handoffs drained" 0 s.Cluster.handoffs_pending;
  Alcotest.(check int) "drops drained" 0 s.Cluster.drops_pending;
  Alcotest.(check string) "file one intact" "file one" (Cluster.peek_data cluster ~oid:oid1);
  Alcotest.(check string) "file two intact" "file two" (Cluster.peek_data cluster ~oid:oid2);
  let audit = Cluster.cross_shard_audit cluster in
  Alcotest.(check bool)
    ("audit after failback: " ^ Invfs.Fsck.shard_report_to_string audit)
    true
    (Invfs.Fsck.is_shard_clean audit)

(* ---- a drop aimed at the owning copy is refused by the shard ---- *)

let test_drop_refused_for_owned_bucket () =
  let clock, net, cluster, conn = mk () in
  let oid, b = file_on conn cluster ~shard:2 in
  ignore (Cluster.shard_write conn ~oid ~off:0L ~data:"keep me" : int);
  let direct = direct_client cluster net ~shard:2 in
  expect_estale (fun () -> Client.c_drop_bucket direct ~bucket:b ~epoch:1);
  Alcotest.(check string) "owning copy survived the misdirected drop" "keep me"
    (Cluster.peek_data cluster ~oid);
  (* a drop for a bucket this shard does NOT own is admitted (a no-op
     here: it holds no such files) *)
  let pl = Client.c_get_placement (Cluster.coord conn) in
  let other =
    let rec go b' = if pl.Wire.p_owner.(b') <> 2 then b' else go (b' + 1) in
    go 0
  in
  Client.c_drop_bucket direct ~bucket:other ~epoch:1;
  Alcotest.(check string) "still intact" "keep me" (Cluster.peek_data cluster ~oid);
  ignore clock

(* ---- wire-supplied read lengths cannot kill the server ----

   A read length reaches the server as a signed i32, so a negative one
   arrives as itself; handed straight to [Bytes.create], its exception
   is not an [Fs_error] and would escape the reply path and take down
   the pump.  The server refuses it with EINVAL, clamps a huge one (a
   short read is in-contract), and stays up. *)

let expect_einval what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": expected EINVAL")
  | exception E.Fs_error (E.EINVAL, _) -> ()

let test_read_len_validation () =
  let _clock, net, cluster, conn = mk () in
  let oid, _ = file_on conn cluster ~shard:2 in
  ignore (Cluster.shard_write conn ~oid ~off:0L ~data:"hello" : int);
  let direct = direct_client cluster net ~shard:2 in
  expect_einval "negative length is refused, not fatal" (fun () ->
      Client.c_shard_read direct ~oid ~off:0L ~len:(-1) ~epoch:1);
  Alcotest.(check string) "huge length is clamped, not allocated" "hello"
    (Client.c_shard_read direct ~oid ~off:0L ~len:(1 lsl 30) ~epoch:1);
  (* the plain file read checks its length against the buffer first *)
  let coord = Cluster.coord conn in
  let fd = Client.c_creat coord "/lenprobe" in
  ignore (Client.c_write coord fd (Bytes.of_string "abcde") 5 : int);
  Client.c_close coord fd;
  let fd = Client.c_open coord "/lenprobe" Fs.Rdonly in
  let buf = Bytes.create 64 in
  expect_einval "plain read with hostile length" (fun () -> Client.c_read coord fd buf (-1));
  Alcotest.(check int) "plain read after the refusal" 5 (Client.c_read coord fd buf 64);
  Client.c_close coord fd;
  (* the server survived: normal traffic still flows *)
  Alcotest.(check int) "server still serving" 5
    (Cluster.shard_write conn ~oid ~off:0L ~data:"world")

(* ---- a crashed shard reboots fenced until re-armed ---- *)

let test_crashed_shard_reboots_fenced () =
  let clock, net, cluster, conn = mk ~hb:0.2 () in
  let oid, _ = file_on conn cluster ~shard:2 in
  ignore (Cluster.shard_write conn ~oid ~off:0L ~data:"durable" : int);
  Cluster.crash_member cluster 2;
  (* rebooted with sh_epoch = 0: refuses everything before a heartbeat
     reply re-arms it, even a correctly-addressed current-epoch write *)
  let direct = direct_client cluster net ~shard:2 in
  expect_estale (fun () ->
      Client.c_shard_write direct ~oid ~off:0L ~data:"too soon" ~epoch:1);
  tick clock cluster ~step:0.1 4;
  Alcotest.(check int) "re-armed after heartbeat" 7
    (Client.c_shard_write direct ~oid ~off:0L ~data:"ok now!" ~epoch:1);
  Alcotest.(check string) "data survived the crash then the write" "ok now!"
    (Cluster.peek_data cluster ~oid)

let () =
  Alcotest.run "cluster"
    [
      ( "cluster",
        [
          Alcotest.test_case "routing" `Quick test_routing;
          Alcotest.test_case "fencing ordering and failover" `Quick
            test_fencing_ordering_and_failover;
          Alcotest.test_case "handoff idempotent under crash" `Quick
            test_handoff_idempotent_under_crash;
          Alcotest.test_case "failback cancels pending drop" `Quick
            test_failback_cancels_pending_drop;
          Alcotest.test_case "chained failover drops abandoned destination" `Quick
            test_chained_failover_drops_abandoned_dst;
          Alcotest.test_case "failback to a handoff's source" `Quick
            test_failback_to_handoff_source;
          Alcotest.test_case "drop refused for owned bucket" `Quick
            test_drop_refused_for_owned_bucket;
          Alcotest.test_case "read length validation" `Quick test_read_len_validation;
          Alcotest.test_case "crashed shard reboots fenced" `Quick
            test_crashed_shard_reboots_fenced;
        ] );
    ]
