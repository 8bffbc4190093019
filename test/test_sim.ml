(* Tests for the discrete-event engine and the impaired channels. *)

let check = Alcotest.check

(* --- Engine --- *)

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~after:0.3 (fun () -> log := 3 :: !log));
  ignore (Sim.Engine.schedule e ~after:0.1 (fun () -> log := 1 :: !log));
  ignore (Sim.Engine.schedule e ~after:0.2 (fun () -> log := 2 :: !log));
  Sim.Engine.run e;
  check Alcotest.(list int) "time order" [ 1; 2; 3 ] (List.rev !log);
  check (Alcotest.float 1e-9) "clock at last event" 0.3 (Sim.Engine.now e)

let test_engine_fifo_ties () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.Engine.schedule e ~after:1.0 (fun () -> log := i :: !log))
  done;
  Sim.Engine.run e;
  check Alcotest.(list int) "insertion order on ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule e ~after:0.1 (fun () -> fired := true) in
  Sim.Engine.cancel h;
  check Alcotest.bool "cancelled flag" true (Sim.Engine.cancelled h);
  Sim.Engine.run e;
  check Alcotest.bool "did not fire" false !fired

let test_engine_nested_scheduling () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.schedule e ~after:0.1 (fun () ->
         log := "outer" :: !log;
         ignore (Sim.Engine.schedule e ~after:0.1 (fun () -> log := "inner" :: !log))));
  Sim.Engine.run e;
  check Alcotest.(list string) "nested" [ "outer"; "inner" ] (List.rev !log);
  check (Alcotest.float 1e-9) "time" 0.2 (Sim.Engine.now e)

let test_engine_until () =
  let e = Sim.Engine.create () in
  let fired = ref 0 in
  ignore (Sim.Engine.schedule e ~after:1.0 (fun () -> incr fired));
  ignore (Sim.Engine.schedule e ~after:2.0 (fun () -> incr fired));
  Sim.Engine.run ~until:1.5 e;
  check Alcotest.int "only first" 1 !fired;
  check (Alcotest.float 1e-9) "clock clamped" 1.5 (Sim.Engine.now e);
  Sim.Engine.run e;
  check Alcotest.int "resumed" 2 !fired

let test_engine_max_events () =
  let e = Sim.Engine.create () in
  let rec tick () = ignore (Sim.Engine.schedule e ~after:0.1 (fun () -> tick ())) in
  tick ();
  Sim.Engine.run ~max_events:100 e;
  check Alcotest.int "bounded" 100 (Sim.Engine.events_fired e)

let test_engine_negative_delay_rejected () =
  let e = Sim.Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Sim.Engine.schedule e ~after:(-1.0) ignore))

let test_engine_pending () =
  let e = Sim.Engine.create () in
  let h = Sim.Engine.schedule e ~after:1.0 ignore in
  ignore (Sim.Engine.schedule e ~after:2.0 ignore);
  check Alcotest.int "two pending" 2 (Sim.Engine.pending e);
  Sim.Engine.cancel h;
  check Alcotest.int "one pending" 1 (Sim.Engine.pending e)

let test_engine_heap_stress () =
  (* Thousands of events in random order still fire monotonically. *)
  let e = Sim.Engine.create ~seed:99 () in
  let rng = Bitkit.Rng.create 1 in
  let last = ref 0. in
  let monotone = ref true in
  for _ = 1 to 5000 do
    let at = Bitkit.Rng.float rng *. 100. in
    ignore
      (Sim.Engine.schedule e ~after:at (fun () ->
           if Sim.Engine.now e < !last then monotone := false;
           last := Sim.Engine.now e))
  done;
  Sim.Engine.run e;
  check Alcotest.bool "monotone" true !monotone;
  check Alcotest.int "all fired" 5000 (Sim.Engine.events_fired e)

let test_engine_live_accounting () =
  (* 10k schedule/cancel cycles: the O(1) live counter must agree with
     the O(n) queue scan throughout, cancels included. *)
  let e = Sim.Engine.create ~seed:3 () in
  let rng = Bitkit.Rng.create 17 in
  let handles = ref [] in
  for i = 1 to 10_000 do
    let h = Sim.Engine.schedule e ~after:(Bitkit.Rng.float rng *. 10.) ignore in
    if Bitkit.Rng.int rng 2 = 0 then Sim.Engine.cancel h else handles := h :: !handles;
    if i mod 1000 = 0 then
      check Alcotest.int
        (Printf.sprintf "live = pending after %d cycles" i)
        (Sim.Engine.pending e) (Sim.Engine.live e)
  done;
  (* Cancel half of the survivors, including double-cancels. *)
  List.iteri
    (fun i h ->
      if i mod 2 = 0 then begin
        Sim.Engine.cancel h;
        Sim.Engine.cancel h
      end)
    !handles;
  check Alcotest.int "live = pending after mass cancel" (Sim.Engine.pending e)
    (Sim.Engine.live e);
  Sim.Engine.run e;
  check Alcotest.int "empty: live" 0 (Sim.Engine.live e);
  check Alcotest.int "empty: pending" 0 (Sim.Engine.pending e)

let test_engine_cancel_after_fire () =
  (* Cancelling a handle that already fired must not corrupt the live
     count (no double decrement). *)
  let e = Sim.Engine.create () in
  let h = Sim.Engine.schedule e ~after:0.1 ignore in
  ignore (Sim.Engine.schedule e ~after:1.0 ignore);
  Sim.Engine.run ~until:0.5 e;
  Sim.Engine.cancel h;
  check Alcotest.int "live unaffected" 1 (Sim.Engine.live e);
  check Alcotest.int "pending agrees" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  check Alcotest.int "drained" 0 (Sim.Engine.live e)

let test_engine_compaction () =
  (* Cancelling most of a large queue triggers compaction: dead entries
     are dropped from the heap rather than retained until their time. *)
  let e = Sim.Engine.create () in
  let handles =
    List.init 10_000 (fun i ->
        Sim.Engine.schedule e ~after:(Float.of_int i +. 1.) ignore)
  in
  List.iteri (fun i h -> if i mod 10 <> 0 then Sim.Engine.cancel h) handles;
  (* A fresh schedule after the mass cancel gives the engine a chance to
     compact. *)
  ignore (Sim.Engine.schedule e ~after:0.5 ignore);
  check Alcotest.bool "compacted at least once" true (Sim.Engine.compactions e > 0);
  check Alcotest.int "live survivors" 1001 (Sim.Engine.live e);
  Sim.Engine.run e;
  check Alcotest.int "survivors fired" 1001 (Sim.Engine.events_fired e)

(* --- Channel --- *)

let collect_channel cfg n =
  let e = Sim.Engine.create ~seed:5 () in
  let got = ref [] in
  let ch =
    Sim.Channel.create e cfg ~size:String.length
      ~corrupt:Sim.Channel.corrupt_string
      ~deliver:(fun m -> got := m :: !got)
      ()
  in
  for i = 1 to n do
    Sim.Channel.send ch (Printf.sprintf "msg%04d" i)
  done;
  Sim.Engine.run e;
  (List.rev !got, Sim.Channel.stats ch)

let test_channel_ideal_delivers_in_order () =
  let got, stats = collect_channel Sim.Channel.ideal 100 in
  check Alcotest.int "all delivered" 100 (List.length got);
  check Alcotest.int "none dropped" 0 stats.Sim.Channel.dropped;
  check Alcotest.bool "in order" true
    (got = List.init 100 (fun i -> Printf.sprintf "msg%04d" (i + 1)))

let test_channel_loss_rate () =
  let got, stats = collect_channel (Sim.Channel.lossy 0.3) 2000 in
  let rate = 1. -. (Float.of_int (List.length got) /. 2000.) in
  if rate < 0.25 || rate > 0.35 then Alcotest.failf "loss rate %.3f" rate;
  check Alcotest.int "sent counted" 2000 stats.Sim.Channel.sent

let test_channel_duplication () =
  let got, stats = collect_channel { Sim.Channel.ideal with duplication = 0.5 } 1000 in
  check Alcotest.bool "more than sent" true (List.length got > 1000);
  check Alcotest.bool "dup stat" true (stats.Sim.Channel.duplicated > 300)

let test_channel_corruption_changes_payload () =
  let got, stats = collect_channel { Sim.Channel.ideal with corruption = 1.0 } 50 in
  check Alcotest.int "all delivered" 50 (List.length got);
  check Alcotest.int "all corrupted" 50 stats.Sim.Channel.corrupted;
  let originals = List.init 50 (fun i -> Printf.sprintf "msg%04d" (i + 1)) in
  (* A single flipped bit always changes the payload (though it may turn
     one valid message into another, so compare pairwise in order). *)
  check Alcotest.bool "every payload damaged" true
    (List.for_all2 (fun m o -> m <> o) got originals)

let test_channel_reorder () =
  let got, _ =
    collect_channel { Sim.Channel.ideal with reorder = 0.5; reorder_extra = 0.05 } 200
  in
  check Alcotest.int "all delivered" 200 (List.length got);
  check Alcotest.bool "out of order observed" true
    (got <> List.sort compare got)

let test_channel_bandwidth_serialisation () =
  (* 1000 bytes/s: ten 100-byte messages take about a second overall. *)
  let e = Sim.Engine.create () in
  let done_at = ref 0. in
  let ch =
    Sim.Channel.create e
      { Sim.Channel.ideal with bandwidth = Some 1000.; delay = 0. }
      ~size:String.length
      ~deliver:(fun _ -> done_at := Sim.Engine.now e)
      ()
  in
  for _ = 1 to 10 do
    Sim.Channel.send ch (String.make 100 'x')
  done;
  Sim.Engine.run e;
  if !done_at < 0.9 || !done_at > 1.1 then Alcotest.failf "serialised in %.3fs" !done_at

let test_channel_set_config_kills_link () =
  let e = Sim.Engine.create () in
  let got = ref 0 in
  let ch = Sim.Channel.create e Sim.Channel.ideal ~deliver:(fun () -> incr got) () in
  Sim.Channel.send ch ();
  Sim.Engine.run e;
  Sim.Channel.set_config ch { (Sim.Channel.config ch) with loss = 1.0 };
  Sim.Channel.send ch ();
  Sim.Engine.run e;
  check Alcotest.int "only first" 1 !got

let test_channel_set_config_midflight () =
  (* Pinned semantics: impairment decisions are made at [send] time, so a
     reconfiguration affects only subsequent sends — messages already in
     flight keep the delay and fate they were given. *)
  let e = Sim.Engine.create () in
  let arrivals = ref [] in
  let ch =
    Sim.Channel.create e
      { Sim.Channel.ideal with delay = 0.5 }
      ~size:String.length
      ~deliver:(fun m -> arrivals := (m, Sim.Engine.now e) :: !arrivals)
      ()
  in
  Sim.Channel.send ch "old-config";
  (* While "old-config" is still in flight, make the link slow and dead
     for new traffic. *)
  Sim.Channel.set_config ch { (Sim.Channel.config ch) with delay = 2.0; loss = 1.0 };
  Sim.Channel.send ch "dropped";
  Sim.Channel.set_config ch { (Sim.Channel.config ch) with loss = 0.0 };
  Sim.Channel.send ch "new-config";
  Sim.Engine.run e;
  let arrivals = List.rev !arrivals in
  check Alcotest.(list string) "old keeps old fate, new sees new config"
    [ "old-config"; "new-config" ]
    (List.map fst arrivals);
  check (Alcotest.float 1e-6) "old delay honoured" 0.5 (List.assoc "old-config" arrivals);
  check (Alcotest.float 1e-6) "new delay honoured" 2.0 (List.assoc "new-config" arrivals)

let drop_run_lengths cfg n =
  (* Which of [n] sequenced messages never arrived, grouped into
     consecutive runs (the channel preserves order at fixed delay). *)
  let got, _ = collect_channel cfg n in
  let arrived = Array.make n false in
  List.iter
    (fun m -> Scanf.sscanf m "msg%d" (fun i -> arrived.(i - 1) <- true))
    got;
  let runs = ref [] and cur = ref 0 in
  Array.iter
    (fun ok ->
      if ok then begin
        if !cur > 0 then runs := !cur :: !runs;
        cur := 0
      end
      else incr cur)
    arrived;
  if !cur > 0 then runs := !cur :: !runs;
  !runs

let test_channel_burst_loss () =
  let n = 4000 in
  let target = 0.25 in
  let burst = drop_run_lengths (Sim.Channel.burst_lossy ~loss:target ~burst_len:6.) n in
  let iid = drop_run_lengths (Sim.Channel.lossy target) n in
  let total = List.fold_left ( + ) 0 in
  let mean_run r = Float.of_int (total r) /. Float.of_int (List.length r) in
  (* Equal average rate… *)
  let rate r = Float.of_int (total r) /. Float.of_int n in
  if Float.abs (rate burst -. target) > 0.06 then
    Alcotest.failf "burst loss rate %.3f, want ~%.2f" (rate burst) target;
  if Float.abs (rate iid -. target) > 0.06 then
    Alcotest.failf "iid loss rate %.3f, want ~%.2f" (rate iid) target;
  (* …but very different clustering: mean drop-run length near burst_len
     for Gilbert–Elliott, near 1/(1-p) ≈ 1.33 for i.i.d. *)
  if mean_run burst < 2. *. mean_run iid then
    Alcotest.failf "burst runs %.2f not longer than iid runs %.2f" (mean_run burst)
      (mean_run iid)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time ordering" `Quick test_engine_ordering;
          Alcotest.test_case "FIFO on ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "cancellation" `Quick test_engine_cancel;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "run ~until" `Quick test_engine_until;
          Alcotest.test_case "run ~max_events" `Quick test_engine_max_events;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay_rejected;
          Alcotest.test_case "pending count" `Quick test_engine_pending;
          Alcotest.test_case "heap stress" `Quick test_engine_heap_stress;
          Alcotest.test_case "live accounting 10k cycles" `Quick
            test_engine_live_accounting;
          Alcotest.test_case "cancel after fire" `Quick test_engine_cancel_after_fire;
          Alcotest.test_case "heap compaction" `Quick test_engine_compaction;
        ] );
      ( "channel",
        [
          Alcotest.test_case "ideal in-order" `Quick test_channel_ideal_delivers_in_order;
          Alcotest.test_case "loss rate" `Quick test_channel_loss_rate;
          Alcotest.test_case "duplication" `Quick test_channel_duplication;
          Alcotest.test_case "corruption" `Quick test_channel_corruption_changes_payload;
          Alcotest.test_case "reordering" `Quick test_channel_reorder;
          Alcotest.test_case "bandwidth" `Quick test_channel_bandwidth_serialisation;
          Alcotest.test_case "mid-run reconfig" `Quick test_channel_set_config_kills_link;
          Alcotest.test_case "mid-flight reconfig semantics" `Quick
            test_channel_set_config_midflight;
          Alcotest.test_case "gilbert-elliott burst loss" `Quick test_channel_burst_loss;
        ] );
    ]
