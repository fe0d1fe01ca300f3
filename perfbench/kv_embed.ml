(* kv-embed: the construction used as an embedded library. One domain
   runs a closed loop over an in-process [Onll.Make (Native) (Kv)] with
   [Config.default] and a 500 ns emulated fence: 256 uniform 9-byte keys,
   16-byte values, 70 % Put / 30 % Get, and after every 500 Puts the §8
   reclamation a long-running user performs (checkpoint, then prune below
   the returned index). Every answer is checked against a model map. *)

open Onll_core
module Kv = Onll_specs.Kv
module Native = Onll_machine.Native

let n_keys = 256
let key_len = 9
let value_len = 16
let put_pct = 70
let ckpt_every = 500
let fence_ns = 500

let keys_of_seed seed =
  let rng = Random.State.make [| seed; 0x6b6579 |] in
  let seen = Hashtbl.create n_keys in
  let keys = ref [] in
  while Hashtbl.length seen < n_keys do
    let k = String.init key_len (fun _ -> Char.chr (97 + Random.State.int rng 26)) in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      keys := k :: !keys
    end
  done;
  Array.of_list (List.rev !keys)

let gen_value rng = String.init value_len (fun _ -> Char.chr (65 + Random.State.int rng 26))

(* The op stream of a seed: (key, Some value) for a Put, (key, None) for a Get. *)
let op_stream seed keys =
  let rng = Random.State.make [| seed; 0x6f7073 |] in
  fun () ->
    let k = keys.(Random.State.int rng n_keys) in
    if Random.State.int rng 100 < put_pct then (k, Some (gen_value rng)) else (k, None)

type phase = {
  upd : Lat.t;
  rd : Lat.t;
  lag : Lat.t;
  span_ns : int;  (* median over the rounds of a round's measured span *)
  rounds : int;
  kinds : Outcome.counter;
  ok_puts : int;
  fences : int;  (* persistent fences over the phase, maintenance included *)
  fence_violations : int;
      (* acknowledged Puts that issued no fence, or more than one without
         checkpointing or compacting their log *)
  compacting_puts : int;  (* Puts that checkpointed or compacted their log *)
  restart_ns : float list;  (* one timed restart per round *)
  setup_ns : float list;  (* [setups_per_round] set-ups before each round *)
  durable : bool;  (* every key reads back its model value after recovery *)
  rss_mb : float;
  log_bytes : int;
  log_appends : int;
  model : (string, string) Hashtbl.t;  (* the last round's *)
}

(* A phase is [rounds] rounds. Each round makes a fresh object and runs
   the next [round_ops] operations of the seed's stream on it, then
   restarts it and audits it. The number of operations is fixed, not
   what fits in the time: which operations fail is then a function of
   the seed alone, so two runs of the same code on the same seed attempt
   and fail the same operations. A round is several times longer than
   the known failure point (the first checkpoint, at Put 500), so the
   failure shows in every round. Rounds of equal work make the median round span a
   throughput estimate that a transient stall of the shared host moves
   little. *)
let round_ops = 6000

(* One set-up, machine + make, in ns. *)
let setup_once () =
  let t0 = Lat.now_ns () in
  let nat = Native.create ~fence_ns ~max_processes:1 () in
  ignore (Native.register nat);
  let module M = (val Native.machine nat) in
  let module O = Onll.Make (M) (Kv) in
  ignore (Sys.opaque_identity (O.make Onll.Config.default));
  float_of_int (Lat.now_ns () - t0)

(* Set-ups are timed a few at a time before every round, so that they
   are spread over the whole run. The fastest of one burst of set-ups
   taken in a few milliseconds read the host's speed at that moment and
   moved by up to 29 % between runs (README.md). *)
let setups_per_round = 11


(* Rounds per measured second: at the time this benchmark was written a
   round took about 0.6 s on a two-vCPU VM. *)
let rounds_per_second = 1.5
let rounds ~seconds = max 1 (int_of_float (Float.round (rounds_per_second *. float_of_int seconds)))

(* One timed phase. [spans] switches the per-call spans on. The
   library's own counters are always on: they tell a Put that
   checkpointed or compacted its log, which may fence more than once,
   from one that must fence exactly once. [plant] plants one wrong
   expected value in the first round (the self-test): a model answer or
   a Put's fence count. *)
let phase ~keys ~seed ~rounds ~spans ~(plant : Outcome.plant) =
  let sink = Onll_obs.Sink.make () in
  let reg = Onll_obs.Sink.registry sink in
  let counter = Onll_obs.Metrics.counter reg in
  let ckpts = counter "checkpoints" and compactions = counter "log.compactions" in
  let appends = counter "log.appends" in
  let upd = Lat.create () and rd = Lat.create () and lag = Lat.create () in
  (* The peak resident set is the program's: the recorders above and
     whatever the process held before are the baseline it grows from. *)
  let rss0_mb = Outcome.reset_peak_rss () in
  let next = op_stream seed keys in
  let kinds = Outcome.counter () in
  let ok_puts = ref 0 and req = ref 0 in
  let fence_violations = ref 0 and compacting = ref 0 and fences = ref 0 in
  let durable = ref true in
  let setups = ref [] in
  (* the spin calibration is process-wide and lazy; it runs untimed *)
  ignore (Native.calibrate ());
  let open_span name parent =
    match spans with Some s -> Spans.start s ~parent ~req:!req name | None -> -1
  in
  let close_span id = match spans with Some s -> Spans.stop s id | None -> () in
  let wrong () =
    Outcome.bump kinds "wrong_answer";
    `Failed
  in
  let round first =
    (* the previous round's object is garbage; collect it untimed *)
    Gc.full_major ();
    setups := List.init setups_per_round (fun _ -> setup_once ()) @ !setups;
    let nat = Native.create ~fence_ns ~max_processes:1 () in
    ignore (Native.register nat);
    let module M = (val Native.machine nat) in
    let module O = Onll.Make (M) (Kv) in
    let o = O.make { Onll.Config.default with sink } in
    let model = Hashtbl.create n_keys in
    if first && plant = Outcome.Wrong_value then
      Hashtbl.replace model keys.(0) "not-what-was-put";
    let extra_fence = ref (if first && plant = Outcome.Wrong_fences then 1 else 0) in
    let puts = ref 0 in
    let maintain root =
      let sp = open_span "core.checkpoint" root in
      match O.checkpoint o with
      | exception e ->
          close_span sp;
          Outcome.bump kinds ("checkpoint." ^ Outcome.kind_of_exn e)
      | idx -> (
          close_span sp;
          let sp = open_span "core.prune" root in
          match O.prune o ~below:idx with
          | () -> close_span sp
          | exception e ->
              close_span sp;
              Outcome.bump kinds ("prune." ^ Outcome.kind_of_exn e))
    in
    let fences0 = Native.persistent_fences nat in
    let t_start = Lat.now_ns () in
    let prev_end = ref t_start in
    for _ = 1 to round_ops do
      let k, put = next () in
      let root = open_span "kv.op" (-1) in
      let t0 = Lat.now_ns () in
      Lat.add lag (t0 - !prev_end);
      let verdict =
        match put with
        | Some v ->
            incr puts;
            let f0 = Native.persistent_fences nat in
            let c0 = Onll_obs.Metrics.(count ckpts + count compactions) in
            let a0 = Onll_obs.Metrics.count appends in
            let sp = open_span "core.update" root in
            let r = try Ok (O.update o (Kv.Put (k, v))) with e -> Error e in
            close_span sp;
            let df = Native.persistent_fences nat - f0 + !extra_fence in
            let compacted =
              Onll_obs.Metrics.(count ckpts + count compactions) > c0
              || Onll_obs.Metrics.count appends - a0 > 1
            in
            let verdict =
              match r with
              | Error e ->
                  Outcome.bump kinds (Outcome.kind_of_exn e);
                  `Failed
              | Ok (Kv.Previous p) when p = Hashtbl.find_opt model k ->
                  Hashtbl.replace model k v;
                  incr ok_puts;
                  extra_fence := 0;
                  if compacted then incr compacting;
                  if df = 0 || (df > 1 && not compacted) then incr fence_violations;
                  `Ok
              | Ok _ -> wrong ()
            in
            if !puts mod ckpt_every = 0 then maintain root;
            verdict
        | None -> (
            let sp = open_span "core.read" root in
            let r = try Ok (O.read o (Kv.Get k)) with e -> Error e in
            close_span sp;
            match r with
            | Error e ->
                Outcome.bump kinds (Outcome.kind_of_exn e);
                `Failed
            | Ok (Kv.Found f) when f = Hashtbl.find_opt model k -> `Ok
            | Ok _ -> wrong ())
      in
      let t1 = Lat.now_ns () in
      close_span root;
      let lat = if put = None then rd else upd in
      (match verdict with `Ok -> Lat.add lat (t1 - t0) | `Failed -> Lat.fail lat);
      prev_end := t1;
      incr req
    done;
    let span_ns = !prev_end - t_start in
    fences := !fences + Native.persistent_fences nat - fences0;
    (* Restart: rebuild the object from its durable logs (Listing 5),
       then read every key back against the model. A restarted process
       starts with an empty heap, so the first, untimed recovery drops
       the round's transient trace and the heap is compacted before the
       timed one; otherwise the time would track how much garbage the
       round left. *)
    let recover () =
      match O.recover o with
      | () -> ()
      | exception e ->
          durable := false;
          Outcome.bump kinds ("recover." ^ Printexc.to_string e)
    in
    recover ();
    Gc.compact ();
    let t0 = Lat.now_ns () in
    recover ();
    let restart_ns = float_of_int (Lat.now_ns () - t0) in
    Array.iter
      (fun k ->
        match O.read o (Kv.Get k) with
        | Kv.Found f when f = Hashtbl.find_opt model k -> ()
        | _ | (exception _) -> durable := false)
      keys;
    (float_of_int span_ns, restart_ns, model)
  in
  let results = List.init rounds (fun i -> round (i = 0)) in
  let rss_mb = Outcome.status_mb "self" "VmHWM" -. rss0_mb in
  let _, _, model = List.nth results (rounds - 1) in
  {
    upd;
    rd;
    lag;
    span_ns = int_of_float (Lat.median (List.map (fun (s, _, _) -> s) results));
    rounds;
    kinds;
    ok_puts = !ok_puts;
    fences = !fences;
    fence_violations = !fence_violations;
    compacting_puts = !compacting;
    restart_ns = List.map (fun (_, r, _) -> r) results;
    setup_ns = !setups;
    durable = !durable;
    rss_mb;
    log_bytes = Onll_obs.Metrics.counter_value reg "log.bytes";
    log_appends = Onll_obs.Metrics.counter_value reg "log.appends";
    model;
  }

