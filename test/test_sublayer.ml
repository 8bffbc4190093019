(* Tests for the sublayer framework: action routing through Stack,
   runtime timer semantics, T3 layout auditing, sequence spaces. *)

open Sublayer

let check = Alcotest.check
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A toy sublayer that prefixes its tag going down and strips it coming
   up — a minimal header discipline. *)
module Tag (C : sig
  val tag : string
end) =
struct
  let name = "tag-" ^ C.tag

  type t = int (* messages seen, to check state threading *)
  type up_req = string
  type up_ind = string
  type down_req = string
  type down_ind = string
  type timer = unit

  let handle_up_req n msg = (n + 1, [ Machine.Down (C.tag ^ msg) ])

  let handle_down_ind n msg =
    let tl = String.length C.tag in
    if String.length msg >= tl && String.sub msg 0 tl = C.tag then
      (n + 1, [ Machine.Up (String.sub msg tl (String.length msg - tl)) ])
    else (n, [])

  (* A timer sends a tagged probe down, so the tags on the way out show
     which machine the timer reached. *)
  let handle_timer n () = (n, [ Machine.Down (C.tag ^ "tick") ])
end

module A = Tag (struct let tag = "A" end)
module B = Tag (struct let tag = "B" end)
module AB = Machine.Stack (A) (B)

let test_stack_down_path () =
  let (_ : AB.t), acts = AB.handle_up_req (0, 0) "payload" in
  match acts with
  | [ Machine.Down s ] -> check Alcotest.string "onion order" "BApayload" s
  | _ -> Alcotest.fail "expected a single Down"

let test_stack_up_path () =
  let (_ : AB.t), acts = AB.handle_down_ind (0, 0) "BAx" in
  match acts with
  | [ Machine.Up s ] -> check Alcotest.string "stripped" "x" s
  | _ -> Alcotest.fail "expected a single Up"

let test_stack_state_threading () =
  let st, _ = AB.handle_up_req (0, 0) "m" in
  let st, _ = AB.handle_down_ind st "BAx" in
  check Alcotest.(pair int int) "both counted" (2, 2) st

let test_stack_wrong_tag_dropped () =
  let (_ : AB.t), acts = AB.handle_down_ind (0, 0) "XYx" in
  match acts with
  | [] -> ()
  | _ -> Alcotest.fail "expected no actions"

let test_stack_timer_routing () =
  (* [Left] reaches the upper machine, whose probe then crosses the
     lower one on its way out; [Right] reaches the lower machine only. *)
  let (_ : AB.t), acts = AB.handle_timer (0, 0) (Either.Left ()) in
  (match acts with
  | [ Machine.Down s ] -> check Alcotest.string "upper timer" "BAtick" s
  | _ -> Alcotest.fail "expected a single Down");
  let (_ : AB.t), acts = AB.handle_timer (0, 0) (Either.Right ()) in
  match acts with
  | [ Machine.Down s ] -> check Alcotest.string "lower timer" "Btick" s
  | _ -> Alcotest.fail "expected a single Down"

(* An echo sublayer exercising causal ordering: when it receives a
   message from below it immediately sends a reply down. *)
module Echo = struct
  let name = "echo"

  type t = unit
  type up_req = string
  type up_ind = string
  type down_req = string
  type down_ind = string
  type timer = Machine.Nothing.t

  let handle_up_req () m = ((), [ Machine.Down m ])
  let handle_down_ind () m = ((), [ Machine.Up m; Machine.Down ("reply:" ^ m) ])
  let handle_timer () t = Machine.Nothing.absurd t
end

module EchoB = Machine.Stack (Echo) (B)

let test_stack_causal_order () =
  (* B delivers up to Echo; Echo's reply must go back down through B. *)
  let (_ : EchoB.t), acts = EchoB.handle_down_ind ((), 0) "Bhello" in
  match acts with
  | [ Machine.Up u; Machine.Down d ] ->
      check Alcotest.string "up" "hello" u;
      check Alcotest.string "reply re-tagged" "Breply:hello" d
  | _ -> Alcotest.failf "unexpected action shape (%d actions)" (List.length acts)

(* --- Runtime --- *)

module Delay = struct
  let name = "delay"

  type t = unit
  type up_req = string
  type up_ind = string
  type down_req = string
  type down_ind = string
  type timer = Deliver of string

  let handle_up_req () m = ((), [ Machine.Set_timer (Deliver m, 0.5) ])
  let handle_down_ind () m = ((), [ Machine.Up m ])
  let handle_timer () (Deliver m) = ((), [ Machine.Down m ])
end

module DelayRt = Runtime.Make (Delay)

let test_runtime_timer_fires () =
  let engine = Sim.Engine.create () in
  let sent = ref [] in
  let rt =
    DelayRt.create engine ~transmit:(fun s -> sent := s :: !sent)
      ~deliver:(fun _ -> ()) ()
  in
  DelayRt.from_above rt "x";
  check Alcotest.int "armed" 1 (DelayRt.active_timers rt);
  Sim.Engine.run engine;
  check Alcotest.(list string) "fired" [ "x" ] !sent;
  check Alcotest.int "disarmed" 0 (DelayRt.active_timers rt);
  check Alcotest.bool "time advanced" true (Sim.Engine.now engine >= 0.5)

let test_runtime_timer_rearm_replaces () =
  let engine = Sim.Engine.create () in
  let sent = ref [] in
  let rt =
    DelayRt.create engine ~transmit:(fun s -> sent := s :: !sent)
      ~deliver:(fun _ -> ()) ()
  in
  (* Same timer value re-armed: only the last firing survives. *)
  DelayRt.from_above rt "x";
  DelayRt.from_above rt "x";
  Sim.Engine.run engine;
  check Alcotest.(list string) "one firing" [ "x" ] !sent

(* --- Layout --- *)

let field fname owner offset width = { Layout.fname; owner; offset; width }

let test_layout_disjoint_ok () =
  match Layout.make ~total_bits:16 [ field "a" "x" 0 8; field "b" "y" 8 8 ] with
  | Ok l ->
      check Alcotest.int "covered" 16 (Layout.covered_bits l);
      check Alcotest.(list string) "owners" [ "x"; "y" ] (Layout.owners l);
      check Alcotest.int "bits of x" 8 (Layout.bits_of l "x");
      check Alcotest.(option string) "owner of bit 3" (Some "x") (Layout.owner_of_bit l 3);
      check Alcotest.(option string) "owner of bit 12" (Some "y") (Layout.owner_of_bit l 12)
  | Error e -> Alcotest.fail e

let test_layout_overlap_rejected () =
  match Layout.make ~total_bits:16 [ field "a" "x" 0 9; field "b" "y" 8 8 ] with
  | Ok _ -> Alcotest.fail "overlap accepted"
  | Error _ -> ()

let test_layout_bounds_rejected () =
  match Layout.make ~total_bits:8 [ field "a" "x" 4 8 ] with
  | Ok _ -> Alcotest.fail "out of bounds accepted"
  | Error _ -> ()

let test_layout_empty_field_rejected () =
  match Layout.make ~total_bits:8 [ field "a" "x" 0 0 ] with
  | Ok _ -> Alcotest.fail "empty field accepted"
  | Error _ -> ()

(* --- Seqspace --- *)

let test_seqspace_wrap () =
  let s = Seqspace.create ~width:16 in
  check Alcotest.int "wrap" 0x2345 (Seqspace.wrap s 0x12345);
  check Alcotest.int "modulus" 65536 (Seqspace.modulus s)

let test_seqspace_reconstruct () =
  let s = Seqspace.create ~width:16 in
  check Alcotest.int "near below" 65534 (Seqspace.reconstruct s ~reference:65535 0xFFFE);
  check Alcotest.int "wrapped ahead" 65537 (Seqspace.reconstruct s ~reference:65535 1);
  check Alcotest.int "same" 100 (Seqspace.reconstruct s ~reference:100 100)

let prop_seqspace_roundtrip =
  qtest "reconstruct inverts wrap within half-window"
    QCheck2.Gen.(pair (0 -- 1_000_000) (-30000 -- 30000))
    (fun (reference, delta) ->
      let s = Seqspace.create ~width:16 in
      let v = reference + delta in
      v < 0 || Seqspace.reconstruct s ~reference (Seqspace.wrap s v) = v)

let prop_seqspace_compare =
  qtest "compare_near is consistent"
    QCheck2.Gen.(triple (0 -- 100000) (-100 -- 100) (-100 -- 100))
    (fun (reference, d1, d2) ->
      let s = Seqspace.create ~width:32 in
      let a = reference + d1 and b = reference + d2 in
      a < 0 || b < 0
      || Seqspace.compare_near s ~reference (Seqspace.wrap s a) (Seqspace.wrap s b)
         = Int.compare a b)

let () =
  Alcotest.run "sublayer"
    [
      ( "stack",
        [
          Alcotest.test_case "down path onion" `Quick test_stack_down_path;
          Alcotest.test_case "up path strips" `Quick test_stack_up_path;
          Alcotest.test_case "state threading" `Quick test_stack_state_threading;
          Alcotest.test_case "wrong tag dropped" `Quick test_stack_wrong_tag_dropped;
          Alcotest.test_case "timer routing" `Quick test_stack_timer_routing;
          Alcotest.test_case "causal ordering" `Quick test_stack_causal_order;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "timer fires" `Quick test_runtime_timer_fires;
          Alcotest.test_case "re-arm replaces" `Quick test_runtime_timer_rearm_replaces;
        ] );
      ( "layout",
        [
          Alcotest.test_case "disjoint accepted" `Quick test_layout_disjoint_ok;
          Alcotest.test_case "overlap rejected" `Quick test_layout_overlap_rejected;
          Alcotest.test_case "bounds rejected" `Quick test_layout_bounds_rejected;
          Alcotest.test_case "empty rejected" `Quick test_layout_empty_field_rejected;
        ] );
      ( "seqspace",
        [
          Alcotest.test_case "wrap" `Quick test_seqspace_wrap;
          Alcotest.test_case "reconstruct" `Quick test_seqspace_reconstruct;
          prop_seqspace_roundtrip;
          prop_seqspace_compare;
        ] );
    ]
