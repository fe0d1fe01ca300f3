(* The per-layer cost ladder of the traced run: each lower layer's public
   functions timed on the workload's own inputs (spec and key space,
   record sizes, fence and backend), one span per call, bottom-up:
   machine fence → Crc32/Codec → Plog append/relocate → core
   update/read/checkpoint/prune/snapshot → session submit → in-process
   Service.handle. Every stage gets a fresh machine, so region names never
   collide and counts start at zero. *)

open Onll_core
module Native = Onll_machine.Native
module Fm = Onll_nvm.File_memory
module P = Onll_serve.Protocol

type mach = {
  m : Onll_machine.Machine_sig.t;
  fences : unit -> int;  (* persistent fences so far *)
  fsyncs : unit -> int;  (* 0 on the in-memory machine *)
  sectors : unit -> int;  (* sector write-backs queued; 0 in memory *)
  close : unit -> unit;
}

(* The workload's backend: a fresh machine per call. *)
type backend = Native_fence of int | Files of string

let fresh =
  let n = ref 0 in
  fun backend ->
    incr n;
    match backend with
    | Native_fence fence_ns ->
        let nat = Native.create ~fence_ns ~max_processes:1 () in
        ignore (Native.register nat);
        {
          m = Native.machine nat;
          fences = (fun () -> Native.persistent_fences nat);
          fsyncs = (fun () -> 0);
          sectors = (fun () -> 0);
          close = ignore;
        }
    | Files root ->
        let dir = Filename.concat root (Printf.sprintf "ladder%d" !n) in
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
        let fm = Onll_machine.File_machine.create ~dir ~max_processes:1 () in
        ignore (Onll_machine.File_machine.register fm);
        let mem = Onll_machine.File_machine.memory fm in
        {
          m = Onll_machine.File_machine.machine fm;
          fences = (fun () -> (Fm.stats mem).Fm.Stats.persistent_fences);
          fsyncs = (fun () -> (Fm.stats mem).Fm.Stats.fsyncs);
          sectors = (fun () -> (Fm.stats mem).Fm.Stats.flushes);
          close = (fun () -> Onll_machine.File_machine.close fm);
        }

let reps backend ~mem ~files = match backend with Native_fence _ -> mem | Files _ -> files

(* {1 machine} one fence with pending write-backs *)
let fence sp backend =
  let x = fresh backend in
  let module M = (val x.m) in
  let r = M.Pm.create ~name:"ladder.fence" ~size:4096 in
  for i = 1 to reps backend ~mem:4000 ~files:300 do
    M.Pm.store r ~off:(i * 64 mod 4096) (String.make 64 'f');
    M.Pm.flush r ~off:(i * 64 mod 4096) ~len:64;
    Spans.time sp ~req:i "ladder.machine.fence" M.fence
  done;
  x.close ()

(* {1 util} CRC and codec on the workload's op record and checkpoint record *)
let util sp ~op_record ~ckpt_record ~codec_op =
  let both = op_record ^ ckpt_record in
  for i = 1 to 2000 do
    Spans.time sp ~req:i "ladder.util.crc" (fun () -> ignore (Onll_util.Crc32.string both))
  done;
  for i = 1 to 20000 do
    Spans.time sp ~req:i "ladder.util.codec_op" (fun () -> codec_op ())
  done;
  String.length both

(* {1 plog} append at the workload's record size with a free fence, and
   relocation of a full log whose head dropped seven eighths of it *)
let plog sp ~record_bytes =
  let nat = Native.create ~fence_ns:0 ~max_processes:1 () in
  ignore (Native.register nat);
  let module M = (val Native.machine nat) in
  let module L = Onll_plog.Plog.Make (M) in
  let payload = String.make (max 1 record_bytes) 'p' in
  let logs = ref 0 in
  let new_log capacity =
    incr logs;
    L.create ~name:(Printf.sprintf "ladder.plog%d" !logs) ~capacity ()
  in
  let log = ref (new_log (1 lsl 20)) in
  for i = 1 to 20000 do
    if L.free_bytes !log < String.length payload + 64 then log := new_log (1 lsl 20);
    Spans.time sp ~req:i "ladder.plog.append" (fun () -> L.append !log payload)
  done;
  for i = 1 to 30 do
    let l = new_log 65536 in
    let n = ref 0 in
    while L.free_bytes l >= String.length payload + 64 do
      L.append l payload;
      incr n
    done;
    L.set_head l (!n - (!n / 8));
    Spans.time sp ~req:i "ladder.plog.relocate" (fun () -> L.relocate l)
  done

(* {1 core} the workload's spec on the workload's machine *)

(* Minor-heap words allocated by [f] itself. *)
let words f =
  let w0 = Gc.minor_words () in
  let v = f () in
  (v, Gc.minor_words () -. w0)

type core_counts = { words_upd : float; words_rd : float }

module Core (S : Spec.S) = struct
  let run sp backend ~(next : unit -> [ `U of S.update_op | `R of S.read_op ]) ~n ~ckpt_every =
    let x = fresh backend in
    let module M = (val x.m) in
    let module O = Onll.Make (M) (S) in
    let o = O.make Onll.Config.default in
    let updates = ref 0 in
    let wu = ref 0. and nu = ref 0 and wr = ref 0. and nr = ref 0 in
    (* A call that raises still leaves its span; the workload's own run
       counts such failures by kind. *)
    for i = 1 to n do
      match next () with
      | `U u -> (
          incr updates;
          (match Spans.time sp ~req:i "ladder.core.update" (fun () -> words (fun () -> O.update o u)) with
          | _, w ->
              wu := !wu +. w;
              incr nu
          | exception _ -> ());
          if !updates mod ckpt_every = 0 then
            match Spans.time sp ~req:i "ladder.core.checkpoint" (fun () -> O.checkpoint o) with
            | idx -> (
                try Spans.time sp ~req:i "ladder.core.prune" (fun () -> O.prune o ~below:idx)
                with _ -> ())
            | exception _ -> ())
      | `R r -> (
          match Spans.time sp ~req:i "ladder.core.read" (fun () -> words (fun () -> O.read o r)) with
          | _, w ->
              wr := !wr +. w;
              incr nr
          | exception _ -> ())
    done;
    for i = 1 to 20 do
      ignore (Spans.time sp ~req:i "ladder.core.snapshot" (fun () -> O.snapshot o))
    done;
    x.close ();
    let per s k = if k = 0 then 0. else s /. float_of_int k in
    { words_upd = per !wu !nu; words_rd = per !wr !nr }
end

module Counter = Onll_specs.Counter

(* {1 session} exactly-once submits over the plain counter object *)
let session sp backend ~n =
  let x = fresh backend in
  let module M = (val x.m) in
  let module O = Onll.Make (M) (Counter) in
  let module S = Onll_session.Make (M) (Counter) in
  let module Over = S.Over (O) in
  let o = O.make Onll.Config.default in
  let s = S.attach ~proc:0 ~client:0 (Over.backend o) in
  let ok = ref 0 in
  let f0 = x.fences () in
  for i = 1 to n do
    match Spans.time sp ~req:i "ladder.session.submit" (fun () -> S.submit s Counter.Increment) with
    | Ok _ -> incr ok
    | Error _ -> ()
  done;
  let f = x.fences () - f0 in
  x.close ();
  if !ok = 0 then 0. else float_of_int f /. float_of_int !ok

type serve_counts = { shed_ratio : float; fsyncs_per_update : float; sectors_per_fence : float }

(* {1 serve} Service.handle in process, no socket, the serve mix *)
let serve sp backend ~seed ~n =
  let x = fresh backend in
  let module M = (val x.m) in
  let module Svc = Onll_serve.Service.Make (M) in
  let svc = Svc.make Onll_serve.Service.Plain in
  let c = Svc.conn () in
  let seq =
    match Svc.handle svc c (P.Hello { client = 0; token = Wire.token; tier = P.T_exactly_once }) with
    | P.Attached { next_seq; _ } -> ref next_seq
    | _ -> failwith "ladder: service refused Hello"
  in
  let mix = Random.State.make [| seed; 0x6c6164 |] in
  let acked = ref 0 and shed = ref 0 and submits = ref 0 in
  let f0 = x.fences () and y0 = x.fsyncs () and s0 = x.sectors () in
  let handle i req =
    let t0 = Lat.now_ns () in
    let r = Svc.handle svc c req in
    let t1 = Lat.now_ns () in
    let name =
      match r with
      | P.Acked _ -> "ladder.serve.handle_submit"
      | P.Got _ -> "ladder.serve.handle_fetch"
      | _ -> "ladder.serve.handle_refused"
    in
    ignore (Spans.add sp ~req:i name ~start:t0 ~stop:t1);
    r
  in
  for i = 1 to n do
    if Random.State.int mix 100 < Serve_load.submit_pct then begin
      incr submits;
      match handle i (P.Submit { seq = !seq; deadline_ns = 0; op = Wire.incr_op }) with
      | P.Acked _ ->
          incr acked;
          incr seq
      | P.Refused P.R_overloaded -> incr shed
      | _ -> ()
    end
    else ignore (handle i (P.Fetch { op = Wire.get_op }))
  done;
  let f = x.fences () - f0 and y = x.fsyncs () - y0 and s = x.sectors () - s0 in
  x.close ();
  let per a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  { shed_ratio = per !shed !submits; fsyncs_per_update = per y !acked; sectors_per_fence = per s f }
