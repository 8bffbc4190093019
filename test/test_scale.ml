(* Many-flow scale harness: Sim.Workload driving Transport.Fabric. Small
   flow counts here (CI-sized); E21 pushes the same harness to 1k/5k. *)

let run_workload ?(flows = 40) ?(bytes = 512) ?(loss = 0.) ~backend ~seed () =
  let engine = Sim.Engine.create ~seed ~backend () in
  let channel =
    if loss = 0. then Sim.Channel.ideal else Sim.Channel.lossy loss
  in
  let fabric =
    Transport.Fabric.create engine ~hosts:4 ~channel ~flows ~bytes ()
  in
  Sim.Workload.run ~spacing:0.01 ~name:"scale" ~engine ~flows
    (Transport.Fabric.ops fabric)

let test_exact_delivery () =
  List.iter
    (fun backend ->
      let r = run_workload ~backend ~seed:11 () in
      if not (Sim.Workload.ok r) then
        Alcotest.failf "workload not ok: %a" Sim.Workload.pp_report r;
      Alcotest.(check int) "all flows exact" r.Sim.Workload.flows
        r.Sim.Workload.exact;
      Alcotest.(check bool) "live hwm positive" true
        (r.Sim.Workload.live_hwm > 0))
    [ `Wheel; `Heap ]

let test_exact_under_loss () =
  let r = run_workload ~loss:0.02 ~backend:`Wheel ~seed:12 () in
  if not (Sim.Workload.ok r) then
    Alcotest.failf "lossy workload not ok: %a" Sim.Workload.pp_report r

(* Same seed, same harness, twice: the whole many-flow run must be
   bit-reproducible, wheel included. *)
let test_reproducible () =
  let scenario seed =
    (run_workload ~loss:0.02 ~backend:`Wheel ~seed ()).Sim.Workload.soak
  in
  Alcotest.(check bool) "reproducible" true
    (Sim.Soak.reproducible scenario ~seed:13)

(* Both backends must tell the same story at the soak level too: equal
   virtual end time and events fired for the identical scenario. *)
let test_backend_agreement () =
  let report backend = run_workload ~loss:0.02 ~backend ~seed:14 () in
  let w = report `Wheel and h = report `Heap in
  Alcotest.(check int) "events fired equal"
    h.Sim.Workload.soak.Sim.Soak.events_fired
    w.Sim.Workload.soak.Sim.Soak.events_fired;
  Alcotest.(check bool) "end clocks equal" true
    (w.Sim.Workload.soak.Sim.Soak.vtime = h.Sim.Workload.soak.Sim.Soak.vtime)

(* Partial partition at 1k flows: the links out of host 0 go dark for two
   virtual seconds while the rest of the fabric keeps running. Every flow
   must still deliver exactly — the partitioned ones by retransmitting
   after the heal, the others without ever noticing. *)
let test_partial_partition () =
  let engine = Sim.Engine.create ~seed:15 () in
  let partition = [ Sim.Faultplan.Partition { at = 0.5 }; Sim.Faultplan.Heal { at = 2.5 } ] in
  let link_faults (src, dst) =
    if src = 0 || dst = 0 then Some partition else None
  in
  let fabric =
    Transport.Fabric.create engine ~hosts:8 ~link_faults
      ~channel:(Sim.Channel.lossy 0.01) ~flows:1000 ~bytes:256 ()
  in
  let r =
    Sim.Workload.run ~spacing:0.002 ~name:"partial-partition" ~engine
      ~flows:1000
      (Transport.Fabric.ops fabric)
  in
  if not (Sim.Workload.ok r) then
    Alcotest.failf "partitioned workload not ok: %a" Sim.Workload.pp_report r;
  Alcotest.(check int) "all 1k flows exact" r.Sim.Workload.flows
    r.Sim.Workload.exact;
  (* The partitioned flows cannot finish before the heal: a run that ends
     earlier means the faults were never applied. *)
  Alcotest.(check bool) "run outlives the partition" true
    (r.Sim.Workload.soak.Sim.Soak.vtime > 2.5)

(* --- sharded execution ------------------------------------------------- *)

(* One scenario, parameterised only by the shard count: 8 hosts, 64
   flows, loss, per-shard monitor registries. [shards = 1] runs the
   single engine directly with no domains; the whole Workload report
   (per-flow exactness, events fired, end time, every per-slice sample,
   merged monitor verdicts) must be structurally identical at every
   shard count — the same discipline test_wheel applies to heap vs
   wheel, extended to parallel execution. *)
let sharded_report ?link_faults ?(loss = 0.02) ~shards ~seed () =
  let flows = 64 in
  let shard = Sim.Shard.create ~seed ~lookahead:0.001 ~shards () in
  let mons =
    Array.init shards (fun i ->
        Monitor.Runtime.create ~label:(Printf.sprintf "shard%d" i) ())
  in
  let fabric =
    Transport.Fabric.create_sharded shard ~hosts:8 ~monitors:mons ?link_faults
      ~channel:(Sim.Channel.lossy loss) ~flows ~bytes:384 ()
  in
  Sim.Workload.run_sharded ~spacing:0.01 ~name:"shard-identity" ~shard
    ~launch_site:(Transport.Fabric.launch_site fabric)
    ~verdicts:(fun () -> Monitor.Runtime.merged_verdicts (Array.to_list mons))
    ~flows
    (Transport.Fabric.ops fabric)

let check_identity ?link_faults ~seed () =
  let base = sharded_report ?link_faults ~shards:1 ~seed () in
  if not (Sim.Workload.ok base) then
    Alcotest.failf "single-shard baseline not ok: %a" Sim.Workload.pp_report
      base;
  List.iter
    (fun shards ->
      let r = sharded_report ?link_faults ~shards ~seed () in
      if r <> base then
        Alcotest.failf "%d-shard run diverged from single-engine: %a vs %a"
          shards Sim.Workload.pp_report r Sim.Workload.pp_report base)
    [ 2; 4 ]

let test_shard_identity () = check_identity ~seed:21 ()

(* Same identity with a fault plan partitioning the 3<->4 host pair —
   cross-shard links at both 2 shards (blocks 0-3 | 4-7) and 4 shards
   (pairs), so faults land on conduit-fed channels. *)
let test_shard_identity_faults () =
  let partition =
    [ Sim.Faultplan.Partition { at = 0.3 }; Sim.Faultplan.Heal { at = 1.7 } ]
  in
  let link_faults (src, dst) =
    if (src = 3 && dst = 4) || (src = 4 && dst = 3) then Some partition
    else None
  in
  check_identity ~link_faults ~seed:22 ()

(* The conduit's conservative contract, in isolation: messages at or
   after the receiver's clock drain in push order; a message before it —
   a violated lookahead promise — is an error, never a silent reorder. *)
let test_conduit_lookahead () =
  let c = Sim.Conduit.create ~lookahead:0.5 in
  let seen = ref [] in
  Sim.Conduit.push c ~time:1.0 (fun () -> ());
  Sim.Conduit.push c ~time:1.2 (fun () -> ());
  Sim.Conduit.push c ~time:1.1 (fun () -> ());
  Sim.Conduit.drain c ~now:1.0 (fun ~time _fn -> seen := time :: !seen);
  Alcotest.(check (list (float 0.))) "push order preserved" [ 1.0; 1.2; 1.1 ]
    (List.rev !seen);
  Alcotest.(check int) "drained counter" 3 (Sim.Conduit.drained c);
  Alcotest.(check int) "backlog empty" 0 (Sim.Conduit.backlog c);
  Sim.Conduit.push c ~time:0.9 (fun () -> ());
  (match Sim.Conduit.drain c ~now:1.0 (fun ~time:_ _ -> ()) with
  | () -> Alcotest.fail "past delivery was not rejected"
  | exception Invalid_argument _ -> ())

(* End to end: a cross-shard post that breaks the lookahead promise must
   abort the run with the conduit's past-delivery error — proving the
   running protocol cannot deliver an event into a shard's past. *)
let test_shard_past_delivery_rejected () =
  let shard = Sim.Shard.create ~shards:2 ~lookahead:0.1 () in
  ignore
    (Sim.Engine.at (Sim.Shard.engine shard 0) ~time:1.0 (fun () ->
         (* 1.05 < 1.0 + lookahead: an illegal timestamp. *)
         Sim.Shard.post shard ~src:0 ~dst:1 ~time:1.05 (fun () -> ())));
  (match Sim.Shard.run ~until:10. shard with
  | () -> Alcotest.fail "lookahead violation was not detected"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "names the past delivery" true
        (String.length msg > 0));
  (* And the legal boundary case — exactly now + lookahead — is fine. *)
  let shard = Sim.Shard.create ~shards:2 ~lookahead:0.1 () in
  let fired = ref false in
  ignore
    (Sim.Engine.at (Sim.Shard.engine shard 0) ~time:1.0 (fun () ->
         Sim.Shard.post shard ~src:0 ~dst:1 ~time:(1.0 +. 0.1) (fun () ->
             fired := true)));
  Sim.Shard.run ~until:10. shard;
  Alcotest.(check bool) "boundary message fired" true !fired;
  Alcotest.(check int) "events accounted" 2 (Sim.Shard.events_fired shard)

(* Flow [f] uses ports [1024 + 2f] and [1025 + 2f]; the last flow whose
   ports stay below the 49152+ ephemeral range is 24,063. Both
   constructors accept exactly that many flows and refuse one more,
   instead of letting the ports wrap past 65535 and the segments vanish
   at the switch. *)
let test_port_capacity () =
  let channel = { Sim.Channel.ideal with delay = 0.01 } in
  let build flows =
    let engine = Sim.Engine.create ~seed:1 () in
    Transport.Fabric.create engine ~hosts:8 ~channel ~flows ~bytes:1 ()
  in
  ignore (build 24_064);
  (match build 24_065 with
  | _ -> Alcotest.fail "create accepted 24,065 flows"
  | exception Invalid_argument _ -> ());
  let shard = Sim.Shard.create ~shards:1 () in
  match
    Transport.Fabric.create_sharded shard ~hosts:8 ~channel ~flows:24_065
      ~bytes:1 ()
  with
  | _ -> Alcotest.fail "create_sharded accepted 24,065 flows"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "scale"
    [
      ( "workload",
        [
          Alcotest.test_case "exact delivery on both backends" `Quick
            test_exact_delivery;
          Alcotest.test_case "exact delivery under loss" `Quick
            test_exact_under_loss;
          Alcotest.test_case "bit-reproducible" `Quick test_reproducible;
          Alcotest.test_case "wheel and heap agree" `Quick
            test_backend_agreement;
          Alcotest.test_case "partial partition at 1k flows" `Quick
            test_partial_partition;
          Alcotest.test_case "port plan capacity" `Quick test_port_capacity;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "sharded == single-engine (1/2/4 shards)" `Quick
            test_shard_identity;
          Alcotest.test_case "sharded == single-engine under link faults"
            `Quick test_shard_identity_faults;
          Alcotest.test_case "conduit lookahead contract" `Quick
            test_conduit_lookahead;
          Alcotest.test_case "no delivery into a shard's past" `Quick
            test_shard_past_delivery_rejected;
        ] );
    ]
