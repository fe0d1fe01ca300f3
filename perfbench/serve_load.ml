(* serve-mem and serve-fsync: `onll serve` (plain construction, the
   exactly-once tier, other flags at their defaults) driven from outside
   by an open loop. Each of the two connections receives Poisson arrivals
   at half the offered rate, 90 % Submit (counter Increment) / 10 %
   Fetch. A connection carries one request at a time, so an arrival that
   finds its connection busy waits in the driver; every latency is timed
   from the request's due time, which charges that wait to the server. *)

module P = Onll_serve.Protocol

type backend = Mem | Fsync

let submit_pct = 90
let conns = 2
let drain_timeout_ns = 5_000_000_000
let spin_ns = 100_000

(* {1 Server processes} *)

type server = { pid : int; mutable alive : bool }

let live : server list ref = ref []

let stop_hard s =
  if s.alive then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ());
    s.alive <- false
  end

let () = at_exit (fun () -> List.iter stop_hard !live)

(* Spawn `onll serve` and wait for its READY line; returns the server and
   the spawn → READY time in ns. *)
let spawn ~onll ~backend ~socket ~dir ~stats =
  let args =
    [ onll; "serve"; "--socket"; socket; "--construction"; "plain"; "--fence-ns"; "500";
      "--stats-out"; stats ]
    @ (match backend with Fsync -> [ "--dir"; dir ] | Mem -> [])
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Lat.now_ns () in
  let pid = Unix.create_process onll (Array.of_list args) Unix.stdin w Unix.stderr in
  Unix.close w;
  let s = { pid; alive = true } in
  live := s :: !live;
  let ic = Unix.in_channel_of_descr r in
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait_ready () =
    if Unix.gettimeofday () > deadline then failwith "server: no READY within 30 s";
    match Unix.select [ r ] [] [] 1. with
    | [], _, _ -> wait_ready ()
    | _ -> (
        match input_line ic with
        | l when String.length l >= 5 && String.sub l 0 5 = "READY" -> ()
        | _ -> wait_ready ()
        | exception End_of_file -> failwith "server exited before READY")
  in
  wait_ready ();
  let dt = Lat.now_ns () - t0 in
  close_in ic;
  (s, dt)

(* SIGTERM (graceful drain) and wait; the exit status must be 0. *)
let stop s =
  if s.alive then begin
    Unix.kill s.pid Sys.sigterm;
    let deadline = Unix.gettimeofday () +. 20. in
    let rec wait () =
      match Unix.waitpid [ WNOHANG ] s.pid with
      | 0, _ ->
          if Unix.gettimeofday () > deadline then begin
            stop_hard s;
            false
          end
          else begin
            Unix.sleepf 0.002;
            wait ()
          end
      | _, WEXITED 0 ->
          s.alive <- false;
          true
      | _ ->
          s.alive <- false;
          false
    in
    let ok = wait () in
    live := List.filter (fun x -> x != s) !live;
    ok
  end
  else true

(* {1 The open loop} *)

type req = { due : int; fetch : bool; acked_at_due : int; mutable sent : int }

type cstate = {
  w : Wire.t;
  arrivals : Random.State.t;
  mix : Random.State.t;
  mutable next_due : int;
  queue : req Queue.t;
  mutable inflight : req option;
  mutable seq : int;
  mutable last_fetch : int;
  mutable lost : bool;
}

type phase = {
  upd : Lat.t;
  rd : Lat.t;
  lag : Lat.t;
  span_ns : int;
  kinds : Outcome.counter;
  acked : int;
  final_ok : bool;  (* counter = acked count at the end of the load *)
  durable_ok : bool;  (* counter = acked count after each restart *)
  setup_ns : float list;
  restart_ns : float list;
  rss_mb : float;
  stats : (string * float) list;  (* the server's --stats-out scalars *)
  ping_ns : float list;
}

let exp_gap rng rate_per_ns =
  let u = Random.State.float rng 1.0 in
  int_of_float (-.Float.log (1. -. u) /. rate_per_ns)

let run_load ~seconds ~rate ~(cs : cstate array) ~spans ~plant =
  let upd = Lat.create () and rd = Lat.create () and lag = Lat.create () in
  let kinds = Outcome.counter () in
  let acked = ref (if plant = Outcome.Wrong_value then 1 else 0) in
  let ack_values = Hashtbl.create 4096 in
  let rate_per_ns = rate /. float_of_int conns /. 1e9 in
  let t_start = Lat.now_ns () in
  let t_end = t_start + (seconds * 1_000_000_000) in
  Array.iter (fun c -> c.next_due <- t_start + exp_gap c.arrivals rate_per_ns) cs;
  let last_recv = ref t_start in
  let req_id = ref 0 in
  let fail (r : req) kind =
    Outcome.bump kinds kind;
    Lat.fail (if r.fetch then rd else upd)
  in
  let lose c =
    c.lost <- true;
    Option.iter (fun r -> fail r "conn_lost") c.inflight;
    c.inflight <- None;
    Queue.iter (fun r -> fail r "conn_lost") c.queue;
    Queue.clear c.queue
  in
  let inflight_submits () =
    Array.fold_left
      (fun n c -> match c.inflight with Some r when not r.fetch -> n + 1 | _ -> n)
      0 cs
  in
  let complete c (r : req) (resp : P.resp) now =
    c.inflight <- None;
    last_recv := now;
    (match spans with
    | Some sp ->
        let name = if r.fetch then "driver.fetch" else "driver.submit" in
        let root = Spans.add sp ~req:!req_id name ~start:r.due ~stop:now in
        ignore (Spans.add sp ~parent:root ~req:!req_id "wire.rtt" ~start:r.sent ~stop:now)
    | None -> ());
    incr req_id;
    let ok () = Lat.add (if r.fetch then rd else upd) (now - r.due) in
    match (r.fetch, resp) with
    | false, P.Acked { seq; value } ->
        if seq <> c.seq || Hashtbl.mem ack_values value || value < 1 then fail r "wrong_answer"
        else begin
          Hashtbl.add ack_values value ();
          incr acked;
          c.seq <- c.seq + 1;
          ok ()
        end
    | true, P.Got v ->
        (* a read sees every ack received before it was due, nothing
           beyond what could have been applied by now, and never goes
           backwards on one connection *)
        if v < r.acked_at_due || v > !acked + inflight_submits () || v < c.last_fetch then
          fail r "wrong_answer"
        else begin
          c.last_fetch <- v;
          ok ()
        end
    | _, P.Refused P.R_overloaded -> fail r "overloaded"
    | _, P.Refused P.R_timeout -> fail r "timeout"
    | _, P.Refused (P.R_bad_seq n) ->
        c.seq <- n;
        fail r "bad_seq"
    | _, P.Refused P.R_degraded -> fail r "degraded"
    | _, P.Refused P.R_draining -> fail r "draining"
    | _ -> fail r "other"
  in
  let send c (r : req) now =
    r.sent <- now;
    c.inflight <- Some r;
    let msg =
      if r.fetch then P.Fetch { op = Wire.get_op }
      else P.Submit { seq = c.seq; deadline_ns = 0; op = Wire.incr_op }
    in
    try Wire.send c.w msg with Wire.Closed -> lose c
  in
  let finished = ref false in
  while not !finished do
    let now = Lat.now_ns () in
    Array.iter
      (fun c ->
        while c.next_due <= now && c.next_due < t_end do
          let r =
            {
              due = c.next_due;
              fetch = Random.State.int c.mix 100 >= submit_pct;
              acked_at_due = !acked;
              sent = 0;
            }
          in
          Lat.add lag (now - c.next_due);
          if c.lost then fail r "conn_lost" else Queue.push r c.queue;
          c.next_due <- c.next_due + exp_gap c.arrivals rate_per_ns
        done;
        if c.inflight = None && not (Queue.is_empty c.queue) then send c (Queue.pop c.queue) now)
      cs;
    let idle = Array.for_all (fun c -> c.inflight = None && Queue.is_empty c.queue) cs in
    if now >= t_end && (idle || now >= t_end + drain_timeout_ns) then finished := true
    else begin
      let next = Array.fold_left (fun a c -> min a c.next_due) max_int cs in
      (* Sleep until shortly before the next arrival, then poll: the
         kernel's timer slack would otherwise make every request late. *)
      let wait_ns =
        if next >= t_end then 100_000_000 else if next - now <= spin_ns then 0 else next - now - spin_ns
      in
      let fds =
        Array.fold_left (fun l c -> if c.lost then l else c.w.Wire.fd :: l) [] cs
      in
      match Unix.select fds [] [] (float_of_int wait_ns /. 1e9) with
      | readable, _, _ ->
          let now = Lat.now_ns () in
          Array.iter
            (fun c ->
              if (not c.lost) && List.mem c.w.Wire.fd readable then
                match Wire.fill c.w with
                | () ->
                    let rec drain () =
                      match Wire.pop c.w with
                      | Some resp -> (
                          match c.inflight with
                          | Some r ->
                              complete c r resp now;
                              drain ()
                          | None -> Outcome.bump kinds "other")
                      | None -> ()
                    in
                    drain ()
                | exception (Wire.Closed | Onll_serve.Protocol.Inbuf.Oversized_frame) -> lose c)
            cs
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    end
  done;
  (* whatever is still outstanding after the drain window timed out *)
  Array.iter
    (fun c ->
      Option.iter (fun r -> fail r "timeout") c.inflight;
      Queue.iter (fun r -> fail r "timeout") c.queue)
    cs;
  (upd, rd, lag, !last_recv - t_start, kinds, !acked)


(* Read the counter through a fresh connection. *)
let read_counter socket ~client =
  let w = Wire.connect socket in
  Fun.protect
    ~finally:(fun () -> Wire.close w)
    (fun () ->
      ignore (Wire.hello w ~client);
      match Wire.call w (P.Fetch { op = Wire.get_op }) with P.Got v -> Some v | _ -> None)

let pings = 1000

let ping_all w ~spans =
  List.init pings (fun i ->
      let t0 = Lat.now_ns () in
      let r = Wire.call w P.Ping in
      let t1 = Lat.now_ns () in
      if r <> P.Pong then failwith "ping: no Pong";
      (match spans with
      | Some sp -> ignore (Spans.add sp ~req:i "server.ping" ~start:t0 ~stop:t1)
      | None -> ());
      float_of_int (t1 - t0))

(* Wire round trips against a fresh in-memory server (workloads that do
   not serve). *)
let ping_fresh_server ~onll ~work ~spans =
  let socket = Filename.concat work "ping.sock" in
  let s, _ = spawn ~onll ~backend:Mem ~socket ~dir:work ~stats:(socket ^ ".stats.json") in
  let w = Wire.connect socket in
  ignore (Wire.hello w ~client:0);
  let r = ping_all w ~spans:(Some spans) in
  Wire.close w;
  ignore (stop s);
  r

(* One phase: [setups] spawns on fresh stores (the last one serves the
   load), the open loop, the end-of-load audit, then [restarts] restarts
   on the same store, each audited again on the file backend. *)
let phase ~onll ~work ~backend ~seed ~seconds ~rate ~spans ~ping ~plant ~tag ~setups ~restarts =
  let socket = Filename.concat work (Printf.sprintf "%s.sock" tag) in
  let stats = Filename.concat work (Printf.sprintf "%s.stats.json" tag) in
  let store i =
    let d = Filename.concat work (Printf.sprintf "%s.store%d" tag i) in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
    d
  in
  let setup_ns = ref [] in
  let server = ref None in
  for i = 1 to setups do
    Option.iter (fun s -> ignore (stop s)) !server;
    let s, dt = spawn ~onll ~backend ~socket ~dir:(store i) ~stats in
    setup_ns := float_of_int dt :: !setup_ns;
    server := Some s
  done;
  let srv = Option.get !server in
  let dir = store setups in
  let cs =
    Array.init conns (fun i ->
        let w = Wire.connect socket in
        let seq = Wire.hello w ~client:i in
        {
          w;
          arrivals = Random.State.make [| seed; 0x617272; i |];
          mix = Random.State.make [| seed; 0x6d6978; i |];
          next_due = 0;
          queue = Queue.create ();
          inflight = None;
          seq;
          last_fetch = 0;
          lost = false;
        })
  in
  let upd, rd, lag, span_ns, kinds, acked = run_load ~seconds ~rate ~cs ~spans ~plant in
  let final_ok =
    match Wire.call cs.(0).w (P.Fetch { op = Wire.get_op }) with
    | P.Got v -> v = acked
    | _ | (exception _) -> false
  in
  let ping_ns = if ping then ping_all cs.(0).w ~spans else [] in
  let rss_mb = Outcome.status_mb (string_of_int srv.pid) "VmHWM" in
  Array.iter (fun c -> Wire.close c.w) cs;
  if not (stop srv) then Outcome.bump kinds "server_exit";
  let stats_scalars = try Onll_obs.Export.read_scalars ~path:stats with _ -> [] in
  let durable_ok = ref true in
  let restart_ns =
    List.init restarts (fun _ ->
        let s, dt = spawn ~onll ~backend ~socket ~dir ~stats:(stats ^ ".restart") in
        (match backend with
        | Fsync -> (
            match read_counter socket ~client:0 with
            | Some v when v = acked -> ()
            | _ | (exception _) -> durable_ok := false)
        | Mem -> ());
        if not (stop s) then Outcome.bump kinds "server_exit";
        float_of_int dt)
  in
  {
    upd;
    rd;
    lag;
    span_ns;
    kinds;
    acked;
    final_ok;
    durable_ok = !durable_ok;
    setup_ns = !setup_ns;
    restart_ns;
    rss_mb;
    stats = stats_scalars;
    ping_ns;
  }
