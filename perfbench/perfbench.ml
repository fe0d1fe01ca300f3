(* The repository benchmark's driver. One run measures one workload for
   a fixed time and prints, as its last line, a JSON object with the
   output verdict, the operation counts and the metrics: end-to-end
   metrics untraced (--trace 0) or per-layer metrics (--trace 1).
   perfbench/README.md says why each workload and metric exists. *)

open Outcome
module Kv = Onll_specs.Kv
module Counter = Onll_specs.Counter
module Codec = Onll_util.Codec

type workload = Kv_embed | Serve of Serve_load.backend * float

let workload_of_string = function
  | "kv-embed" -> Some Kv_embed
  | "serve-mem" -> Some (Serve (Serve_load.Mem, 2000.))
  | "serve-fsync" -> Some (Serve (Serve_load.Fsync, 400.))
  | _ -> None

let us ns = ns /. 1e3

(* The end-to-end metrics every workload reports, from its latency
   recorders; failures are censored at the measured span of the run (of
   a round, on a workload run in [rounds] rounds of equal work).
   Set-up time is the fastest of the run's set-ups: contention on a
   shared host only ever adds time to a set-up, so the fastest is the
   program's own cost and moves least between runs (README.md).
   The read p50, the p99s and the restart time are printed and reported
   per layer (from the untraced half of a traced run), not as end-to-end
   metrics: on the serve workloads they pay for an idle virtual CPU's
   wake-up, the admission snapshot stalls or fsync, and they spread from
   run to run by more than any bound the benchmark may set (README.md). *)
let e2e ?(rounds = 1) ~setup_ns ~restart_ns ~rss_mb ~span_ns ~(upd : Lat.t) ~(rd : Lat.t) () =
  let censor = float_of_int span_ns in
  let q l x = us (Lat.quantile l ~censor x) in
  let ok = Lat.ok upd + Lat.ok rd and attempted = Lat.total upd + Lat.total rd in
  ( [
      m "setup_s" (List.fold_left Float.min infinity setup_ns /. 1e9) "s";
      m "ops_s" (float_of_int ok /. float_of_int rounds /. (censor /. 1e9)) "1/s";
      m "update_p50_us" (q upd 0.5) "us";
      m "ok_ratio" (float_of_int ok /. float_of_int (max 1 attempted)) "ratio";
      m "peak_rss_mb" rss_mb "MiB";
    ],
    [
      m "driver.restart_s" (Lat.median restart_ns /. 1e9) "s";
      m "driver.update_p99_us" (q upd 0.99) "us";
      m "driver.read_p50_us" (q rd 0.5) "us";
      m "driver.read_p99_us" (q rd 0.99) "us";
    ],
    attempted,
    attempted - ok,
    [
      Printf.sprintf "samples update n=%d ok=%d failed=%d beyond_p99=%d p99_us=%.3f" (Lat.total upd)
        (Lat.ok upd) (Lat.failed upd) (Lat.beyond upd 0.99) (q upd 0.99);
      Printf.sprintf "samples read n=%d ok=%d failed=%d beyond_p99=%d p50_us=%.3f p99_us=%.3f"
        (Lat.total rd) (Lat.ok rd) (Lat.failed rd) (Lat.beyond rd 0.99) (q rd 0.5) (q rd 0.99);
      Printf.sprintf "read quantiles_us p10=%.1f p25=%.1f p90=%.1f p95=%.1f p99.9=%.1f" (q rd 0.1)
        (q rd 0.25) (q rd 0.9) (q rd 0.95) (q rd 0.999);
      Printf.sprintf "restart_ns min=%.0f median=%.0f setup_ns min=%.0f median=%.0f"
        (List.fold_left Float.min infinity restart_ns) (Lat.median restart_ns)
        (List.fold_left Float.min infinity setup_ns) (Lat.median setup_ns);
      Printf.sprintf "failed_ratio %.6f (failed, refused, timed-out or wrong / attempted)"
        (float_of_int (attempted - ok) /. float_of_int (max 1 attempted));
    ] )

let merge_kinds cs =
  let c = Outcome.counter () in
  List.iter (fun x -> Hashtbl.iter (fun k n -> Hashtbl.replace c k (n + get c k)) x) cs;
  c

let sum_prefixed c suffix =
  Hashtbl.fold
    (fun k n acc ->
      if k = suffix || String.ends_with ~suffix:("." ^ suffix) k then acc + n else acc)
    c 0

(* {1 The ladder and the per-layer metrics} *)

type ladder_in = {
  backend : Ladder.backend;
  op_record : string;
  ckpt_record : string;
  codec_op : unit -> unit;
  codec_ckpt : unit -> unit;
  record_bytes : int;
  core : Spans.t -> Ladder.core_counts;
}

let ladder ~sp ~seed (l : ladder_in) =
  Ladder.fence sp l.backend;
  let bytes = Ladder.util sp ~op_record:l.op_record ~ckpt_record:l.ckpt_record ~codec_op:l.codec_op in
  for i = 1 to 2000 do
    Spans.time sp ~req:i "ladder.util.codec_ckpt" l.codec_ckpt
  done;
  Ladder.plog sp ~record_bytes:l.record_bytes;
  let cc = l.core sp in
  let fps = Ladder.session sp l.backend ~n:(Ladder.reps l.backend ~mem:500 ~files:150) in
  let sc = Ladder.serve sp l.backend ~seed ~n:(Ladder.reps l.backend ~mem:1000 ~files:200) in
  let fence_us = Spans.median_us sp "ladder.machine.fence" in
  let append_us = Spans.median_us sp "ladder.plog.append" in
  let core_update_us = Spans.median_us sp "ladder.core.update" in
  let session_us = Spans.median_us sp "ladder.session.submit" in
  let handle_submit_us = Spans.median_us sp "ladder.serve.handle_submit" in
  ( [
      m "machine.fence_us" fence_us "us";
      m "nvm.fsyncs_per_update" sc.fsyncs_per_update "count";
      m "nvm.sectors_per_fence" sc.sectors_per_fence "count";
      m "util.crc_ns_per_kib" (Spans.median_us sp "ladder.util.crc" *. 1e3 *. 1024. /. float_of_int bytes) "ns";
      m "util.codec_ns_per_record" (Spans.median_us sp "ladder.util.codec_op" *. 1e3) "ns";
      m "util.codec_ns_per_ckpt" (Spans.median_us sp "ladder.util.codec_ckpt" *. 1e3) "ns";
      m "plog.append_ns" (append_us *. 1e3) "ns";
      m "plog.relocate_us" (Spans.median_us sp "ladder.plog.relocate") "us";
      m "core.update_us" core_update_us "us";
      m "core.update_self_us" (core_update_us -. fence_us -. append_us) "us";
      m "core.read_us" (Spans.median_us sp "ladder.core.read") "us";
      m "core.checkpoint_us" (Spans.median_us sp "ladder.core.checkpoint") "us";
      m "core.prune_us" (Spans.median_us sp "ladder.core.prune") "us";
      m "core.snapshot_us" (Spans.median_us sp "ladder.core.snapshot") "us";
      m "core.words_per_update" cc.words_upd "count";
      m "core.words_per_read" cc.words_rd "count";
      m "session.submit_us" session_us "us";
      m "session.fences_per_submit" fps "count";
      m "serve.handle_submit_us" handle_submit_us "us";
      m "serve.handle_fetch_us" (Spans.median_us sp "ladder.serve.handle_fetch") "us";
    ],
    sc )

let fail_metrics kinds =
  List.map (fun k -> m ("fail." ^ k) (float_of_int (get kinds k)) "count") Outcome.all_kinds

(* {1 kv-embed} *)

let kv_ladder_in ~seed ~keys ~(b : Kv_embed.phase) =
  let rng = Random.State.make [| seed; 0x6c6164 |] in
  let op = Kv.Put (keys.(0), Kv_embed.gen_value rng) in
  let op_record = Codec.encode Kv.update_codec op in
  let state =
    Hashtbl.fold (fun k v acc -> Kv.Smap.add k v acc) b.model Kv.Smap.empty
  in
  let ckpt_record = Codec.encode Kv.state_codec state in
  let next = Kv_embed.op_stream seed keys in
  let module C = Ladder.Core (Kv) in
  {
    backend = Ladder.Native_fence Kv_embed.fence_ns;
    op_record;
    ckpt_record;
    codec_op = (fun () -> ignore (Codec.decode Kv.update_codec (Codec.encode Kv.update_codec op)));
    codec_ckpt = (fun () -> ignore (Codec.decode Kv.state_codec (Codec.encode Kv.state_codec state)));
    record_bytes = (if b.log_appends = 0 then 0 else b.log_bytes / b.log_appends);
    core =
      (fun sp ->
        C.run sp (Ladder.Native_fence Kv_embed.fence_ns)
          ~next:(fun () ->
            match next () with k, Some v -> `U (Kv.Put (k, v)) | k, None -> `R (Kv.Get k))
          ~n:3000 ~ckpt_every:100);
  }

let kv_embed ~seed ~seconds ~trace ~plant ~onll ~work =
  let keys = Kv_embed.keys_of_seed seed in
  let run seconds spans =
    Kv_embed.phase ~keys ~seed ~rounds:(Kv_embed.rounds ~seconds) ~spans ~plant
  in
  let checks (p : Kv_embed.phase) =
    [
      ("answers_match_model", get p.kinds "wrong_answer" = 0);
      ("one_fence_per_put", p.fence_violations = 0);
      ("durable_after_recover", p.durable);
    ]
  in
  let summary (p : Kv_embed.phase) =
    let ms, tails, attempted, failed, notes =
      e2e ~rounds:p.rounds ~setup_ns:p.setup_ns ~restart_ns:p.restart_ns ~rss_mb:p.rss_mb ~span_ns:p.span_ns
        ~upd:p.upd ~rd:p.rd ()
    in
    ( ms,
      tails,
      attempted,
      failed,
      notes
      @ [
          Printf.sprintf "rounds=%d ops_per_round=%d median_round_s=%.4f" p.rounds
            Kv_embed.round_ops (float_of_int p.span_ns /. 1e9);
          Printf.sprintf "fences=%d ok_puts=%d compacting_puts=%d fenceless_puts=%d" p.fences
            p.ok_puts p.compacting_puts p.fence_violations;
        ] )
  in
  if not trace then begin
    let p = run seconds None in
    let ms, _, attempted, failed, notes = summary p in
    let checks = checks p in
    {
      correct = List.for_all snd checks;
      attempted;
      failed;
      kinds = kinds_of p.kinds;
      checks;
      e2e = ms;
      layers = [];
      notes;
    }
  end
  else begin
    let s = max 1 (seconds / 2) in
    let a = run s None in
    let sp = Spans.create () in
    let b = run s (Some sp) in
    let _, tails, _, _, _ = summary a in
    let _, traced_tails, attempted, failed, notes = summary b in
    let ladder_ms, sc = ladder ~sp ~seed (kv_ladder_in ~seed ~keys ~b) in
    let ping = Serve_load.ping_fresh_server ~onll ~work ~spans:sp in
    let kinds = merge_kinds [ a.kinds; b.kinds ] in
    let read_p50 ms = (List.find (fun x -> x.name = "driver.read_p50_us") ms).value in
    let ok_puts = float_of_int (max 1 b.ok_puts) in
    let layers =
      ladder_ms @ tails
      @ [
          m "machine.fences_per_update" (float_of_int b.fences /. ok_puts) "count";
          m "plog.bytes_per_update" (float_of_int b.log_bytes /. ok_puts) "bytes";
          m "core.log_full" (float_of_int (sum_prefixed b.kinds "log_full")) "count";
          m "core.wedged_updates" (float_of_int (get b.kinds "assert_failure")) "count";
          m "serve.shed_ratio" sc.shed_ratio "ratio";
          m "server.ping_rtt_us" (Lat.median ping /. 1e3) "us";
          m "driver.lag_p99_us" (us (Lat.quantile b.lag ~censor:nan 0.99)) "us";
          m "driver.self_us" (Spans.self_median_us sp "kv.op") "us";
          m "trace.overhead_pct" (100. *. ((read_p50 traced_tails /. read_p50 tails) -. 1.)) "%";
        ]
      @ fail_metrics kinds
    in
    let checks = List.map (fun (n, v) -> ("untraced." ^ n, v)) (checks a) @ checks b in
    Spans.write sp (Filename.concat work (Printf.sprintf "spans-kv-embed-%d.tsv" seed));
    {
      correct = List.for_all snd checks;
      attempted = attempted + Lat.total a.upd + Lat.total a.rd;
      failed = failed + Lat.failed a.upd + Lat.failed a.rd;
      kinds = kinds_of kinds;
      checks;
      e2e = [];
      layers;
      notes;
    }
  end

(* {1 serve-mem, serve-fsync} *)

let serve_ladder_in ~seed ~backend ~(b : Serve_load.phase) =
  let stat k = Option.value ~default:0. (List.assoc_opt k b.stats) in
  let op_record = Codec.encode Counter.update_codec Counter.Increment in
  let ckpt_record = Codec.encode Counter.state_codec b.acked in
  let mix = Random.State.make [| seed; 0x636f72 |] in
  let module C = Ladder.Core (Counter) in
  let n = Ladder.reps backend ~mem:3000 ~files:300 in
  {
    backend;
    op_record;
    ckpt_record;
    codec_op =
      (fun () -> ignore (Codec.decode Counter.update_codec (Codec.encode Counter.update_codec Counter.Increment)));
    codec_ckpt =
      (fun () -> ignore (Codec.decode Counter.state_codec (Codec.encode Counter.state_codec b.acked)));
    record_bytes =
      (let a = stat "log.appends" in
       if a = 0. then 0 else int_of_float (stat "log.bytes" /. a));
    core =
      (fun sp ->
        C.run sp backend
          ~next:(fun () ->
            if Random.State.int mix 100 < Serve_load.submit_pct then `U Counter.Increment
            else `R Counter.Get)
          ~n ~ckpt_every:100);
  }

let serve ~backend ~rate ~seed ~seconds ~trace ~plant ~onll ~work =
  (* The traced half reports no set-up or restart time, so it spawns once
     and restarts once, for the audit. A file-backed spawn takes a few
     milliseconds against about 100 for an in-memory one, which
     calibrates the emulated fence, so it is repeated more often. *)
  let run ~tag seconds spans =
    let setups = match backend with Serve_load.Mem -> 21 | Serve_load.Fsync -> 61 in
    let setups, restarts = if spans = None then (setups, 11) else (1, 1) in
    Serve_load.phase ~onll ~work ~backend ~seed ~seconds ~rate ~spans ~ping:(spans <> None)
      ~plant ~tag ~setups ~restarts
  in
  let checks (p : Serve_load.phase) =
    [
      ("answers_consistent", get p.kinds "wrong_answer" = 0);
      ("counter_equals_acked", p.final_ok);
      ("durable_after_restart", p.durable_ok);
      ("server_exits_clean", get p.kinds "server_exit" = 0);
    ]
  in
  let summary (p : Serve_load.phase) =
    let ms, tails, attempted, failed, notes =
      e2e ~setup_ns:p.setup_ns ~restart_ns:p.restart_ns ~rss_mb:p.rss_mb
        ~span_ns:p.span_ns ~upd:p.upd ~rd:p.rd ()
    in
    (ms, tails, attempted, failed, notes @ [ Printf.sprintf "acked=%d offered=%.0f/s" p.acked rate ])
  in
  if not trace then begin
    let p = run ~tag:"e2e" seconds None in
    let ms, _, attempted, failed, notes = summary p in
    let checks = checks p in
    {
      correct = List.for_all snd checks;
      attempted;
      failed;
      kinds = kinds_of p.kinds;
      checks;
      e2e = ms;
      layers = [];
      notes;
    }
  end
  else begin
    let s = max 1 (seconds / 2) in
    let a = run ~tag:"untraced" s None in
    let sp = Spans.create () in
    let b = run ~tag:"traced" s (Some sp) in
    let _, tails, _, _, _ = summary a in
    let _, traced_tails, attempted, failed, notes = summary b in
    let lbackend =
      match backend with
      | Serve_load.Mem -> Ladder.Native_fence 500
      | Serve_load.Fsync -> Ladder.Files work
    in
    let ladder_ms, _ = ladder ~sp ~seed (serve_ladder_in ~seed ~backend:lbackend ~b) in
    let stat k = Option.value ~default:0. (List.assoc_opt k b.stats) in
    let acked = Float.max 1. (stat "serve.submit.ok") in
    let kinds = merge_kinds [ a.kinds; b.kinds ] in
    let read_p50 ms = (List.find (fun x -> x.name = "driver.read_p50_us") ms).value in
    let shed = float_of_int (get b.kinds "overloaded") in
    let layers =
      ladder_ms @ tails
      @ [
          m "machine.fences_per_update" (stat "fences.persistent" /. acked) "count";
          m "plog.bytes_per_update" (stat "log.bytes" /. acked) "bytes";
          m "core.log_full" (float_of_int (sum_prefixed b.kinds "log_full")) "count";
          m "core.wedged_updates" (float_of_int (get b.kinds "assert_failure")) "count";
          m "serve.shed_ratio" (shed /. float_of_int (max 1 (Lat.total b.upd))) "ratio";
          m "server.ping_rtt_us" (Lat.median b.ping_ns /. 1e3) "us";
          m "driver.lag_p99_us" (us (Lat.quantile b.lag ~censor:nan 0.99)) "us";
          m "driver.self_us" (Spans.self_median_us sp "driver.fetch") "us";
          m "trace.overhead_pct" (100. *. ((read_p50 traced_tails /. read_p50 tails) -. 1.)) "%";
        ]
      @ fail_metrics kinds
    in
    let checks = List.map (fun (n, v) -> ("untraced." ^ n, v)) (checks a) @ checks b in
    let name = match backend with Serve_load.Mem -> "serve-mem" | Serve_load.Fsync -> "serve-fsync" in
    Spans.write sp (Filename.concat work (Printf.sprintf "spans-%s-%d.tsv" name seed));
    {
      correct = List.for_all snd checks;
      attempted = attempted + Lat.total a.upd + Lat.total a.rd;
      failed = failed + Lat.failed a.upd + Lat.failed a.rd;
      kinds = kinds_of kinds;
      checks;
      e2e = [];
      layers;
      notes;
    }
  end

(* {1 Report} *)

let json_float x =
  if Float.is_nan x || Float.is_integer x then Printf.sprintf "%.1f" (if Float.is_nan x then 0. else x)
  else Printf.sprintf "%.17g" x

let report (o : Outcome.t) ~trace =
  List.iter print_endline o.notes;
  List.iter (fun (k, n) -> Printf.printf "failures %s %d\n" k n) o.kinds;
  List.iter (fun (k, v) -> Printf.printf "check %s %s\n" k (if v then "pass" else "FAIL")) o.checks;
  let ms = if trace then o.layers else o.e2e in
  List.iter (fun x -> Printf.printf "metric %s %s %s\n" x.name (json_float x.value) x.unit_) ms;
  let body =
    String.concat ", "
      (List.map
         (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_float x.value) x.unit_)
         ms)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    o.correct o.attempted o.failed body

let run_one w ~seed ~seconds ~trace ~plant ~onll ~work =
  match w with
  | Kv_embed -> kv_embed ~seed ~seconds ~trace ~plant ~onll ~work
  | Serve (backend, rate) -> serve ~backend ~rate ~seed ~seconds ~trace ~plant ~onll ~work

(* The benchmark's own checks must fail when fed one wrong expected
   value: a wrong model answer or fence count (kv-embed), or a wrong
   acked count (serve). *)
let self_test ~onll ~work =
  let verdict w plant =
    let o = run_one w ~seed:1 ~seconds:1 ~trace:false ~plant ~onll ~work in
    Printf.printf "self-test %s plant=%s correct=%b\n%!"
      (match w with Kv_embed -> "kv-embed" | Serve _ -> "serve-fsync")
      (match plant with Clean -> "none" | Wrong_value -> "value" | Wrong_fences -> "fences")
      o.correct;
    o.correct
  in
  let kv = Kv_embed and sv = Option.get (workload_of_string "serve-fsync") in
  let ok =
    verdict kv Clean
    && (not (verdict kv Wrong_value))
    && (not (verdict kv Wrong_fences))
    && verdict sv Clean
    && not (verdict sv Wrong_value)
  in
  print_endline (if ok then "self-test pass" else "self-test FAIL");
  exit (if ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let onll = ref "" and work = ref ".bench_work" and selftest = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME kv-embed | serve-mem | serve-fsync");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--onll", Arg.Set_string onll, "PATH the onll executable");
      ("--work", Arg.Set_string work, "DIR scratch directory for sockets, stores and spans");
      ("--self-test", Arg.Set selftest, " check that a planted wrong value fails the checks");
    ]
    (fun a -> raise (Arg.Bad a))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1 --onll PATH";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.mkdir !work 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  if !selftest then self_test ~onll:!onll ~work:!work;
  match workload_of_string !workload with
  | None ->
      Printf.eprintf "unknown workload %S (kv-embed | serve-mem | serve-fsync)\n" !workload;
      exit 2
  | Some w ->
      let trace = !trace = 1 in
      report ~trace
        (run_one w ~seed:!seed ~seconds:!seconds ~trace ~plant:Clean ~onll:!onll ~work:!work)
