(* Host-clock spans recorded by the benchmark around its calls into the
   program. A span is (kind, start, end, parent, flow); the parent is the
   innermost span open when it started, so a span's self time is its
   duration minus its direct children's. Spans live in growable int
   arrays until the run ends, then are summarised or written out.

   The recorder is off in timed runs: [wrap] then costs one field load
   and a branch around the wrapped call. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Span kinds. Transport kinds come in two recursion levels: level 0 is
   the stack on the simulated wire (the fabric hosts, the tunnel's outer
   connection), level 1 the inner stack riding the tunnel. *)
let run = 0 (* the timed section: everything the engine executes *)
let bookkeeping = 1 (* benchmark work inside the run (tracer drains) *)
let rx l = 2 + (4 * l) (* Host endpoint [ep_from_wire] *)
let wire l = 3 + (4 * l) (* endpoint transmit closure, down into the link *)
let app l = 4 + (4 * l) (* write / read credit / close / connect / listen *)
let deliver l = 5 + (4 * l) (* endpoint indications up to the host *)
let tunnel_tx = 10 (* inner host -> Tunnel.link transmit *)
let tunnel_rx = 11 (* Tunnel.link delivery -> inner host *)
let dl_send = 12 (* Datalink.Stack.send *)
let dl_rx = 13 (* Datalink.Stack.from_wire *)
let dl_wire = 14 (* datalink transmit closure, into the bit channel *)
let dl_deliver = 15 (* datalink delivery of a payload *)
let kinds = 16

let names =
  [| "run"; "bookkeeping"; "l0.rx"; "l0.wire"; "l0.app"; "l0.deliver";
     "l1.rx"; "l1.wire"; "l1.app"; "l1.deliver"; "tunnel.tx"; "tunnel.rx";
     "datalink.send"; "datalink.rx"; "datalink.wire"; "datalink.deliver" |]

type t = {
  mutable on : bool;
  mutable n : int;
  mutable kind : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable flow : int array;
  mutable top : int; (* innermost open span, -1 when none *)
}

let create () =
  let a () = Array.make 4096 0 in
  { on = false; n = 0; kind = a (); start = a (); stop = a (); parent = a ();
    flow = a (); top = -1 }

let grow t =
  let g a =
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.kind <- g t.kind;
  t.start <- g t.start;
  t.stop <- g t.stop;
  t.parent <- g t.parent;
  t.flow <- g t.flow

let reset t =
  t.n <- 0;
  t.top <- -1

let enter t kind flow =
  if t.n = Array.length t.kind then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.kind.(i) <- kind;
  t.flow.(i) <- flow;
  t.parent.(i) <- t.top;
  t.stop.(i) <- -1;
  t.top <- i;
  t.start.(i) <- now_ns ();
  i

let leave t i =
  t.stop.(i) <- now_ns ();
  t.top <- t.parent.(i)

let wrap t kind flow f x =
  if not t.on then f x
  else begin
    let i = enter t kind flow in
    match f x with
    | v ->
        leave t i;
        v
    | exception e ->
        leave t i;
        raise e
  end

type summary = {
  count : int array; (* spans per kind *)
  self_ns : int array; (* summed self time per kind *)
  wall_ns : int; (* duration of the [run] span(s) *)
  problems : string list; (* nesting violations; empty when consistent *)
}

(* Self time = duration minus direct children. Because every span's
   duration is charged once to itself and subtracted once from its
   parent, self times over a [run] subtree sum to the run's duration
   exactly; [problems] lists the spans for which that accounting would be
   wrong (left open, or sticking out of their parent). *)
let summarise t =
  let count = Array.make kinds 0 and self_ns = Array.make kinds 0 in
  let problems = ref [] in
  let wall = ref 0 in
  let bad i what =
    if List.length !problems < 5 then
      problems := Printf.sprintf "span %d (%s) %s" i names.(t.kind.(i)) what :: !problems
  in
  for i = 0 to t.n - 1 do
    let k = t.kind.(i) in
    if t.stop.(i) < t.start.(i) then bad i "was never closed"
    else begin
      let d = t.stop.(i) - t.start.(i) in
      count.(k) <- count.(k) + 1;
      self_ns.(k) <- self_ns.(k) + d;
      if k = run then wall := !wall + d;
      let p = t.parent.(i) in
      if p >= 0 then begin
        if t.start.(i) < t.start.(p) || t.stop.(i) > t.stop.(p) then
          bad i "lies outside its parent";
        self_ns.(t.kind.(p)) <- self_ns.(t.kind.(p)) - d
      end
      else if k <> run then bad i "ran outside the timed section"
    end
  done;
  { count; self_ns; wall_ns = !wall; problems = List.rev !problems }

(* Chrome trace_event JSON (complete "X" events on one thread, so
   Perfetto nests them by time); at most [limit] spans, oldest first. *)
let write_chrome t ~limit ~meta path =
  let oc = open_out path in
  let t0 = if t.n > 0 then t.start.(0) else 0 in
  let us ns = float_of_int (ns - t0) /. 1000. in
  Printf.fprintf oc "{\"otherData\":{%s},\"traceEvents\":[\n"
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%S:%S" k v) meta));
  let n = min t.n limit in
  let sep = ref "" in
  for i = 0 to n - 1 do
    if t.stop.(i) >= t.start.(i) then begin
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"flow\":%d}}\n"
        !sep names.(t.kind.(i)) (us t.start.(i))
        (us t.stop.(i) -. us t.start.(i))
        i t.parent.(i) t.flow.(i);
      sep := ","
    end
  done;
  output_string oc "]}\n";
  close_out oc;
  n
