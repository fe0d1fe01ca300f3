(* Latency recorder. Samples are nanoseconds. Below [fine] ns every value
   is counted exactly (one slot per nanosecond), so percentiles carry all
   their digits while memory stays fixed whatever the throughput — a
   faster program must not inflate the benchmark's own RSS. Slower
   samples are kept raw. A failed operation is not a sample: it ranks
   above every success and is valued at the censoring point the caller
   gives (the measured span of the run, which no success can exceed). *)

let fine = 1 lsl 20

type t = {
  counts : int array;
  mutable over : int array;
  mutable n_over : int;
  mutable ok : int;
  mutable failed : int;
}

let create () =
  { counts = Array.make fine 0; over = Array.make 256 0; n_over = 0; ok = 0; failed = 0 }

let add t ns =
  let ns = if ns < 0 then 0 else ns in
  if ns < fine then t.counts.(ns) <- t.counts.(ns) + 1
  else begin
    if t.n_over = Array.length t.over then begin
      let a = Array.make (2 * t.n_over) 0 in
      Array.blit t.over 0 a 0 t.n_over;
      t.over <- a
    end;
    t.over.(t.n_over) <- ns;
    t.n_over <- t.n_over + 1
  end;
  t.ok <- t.ok + 1

let fail t = t.failed <- t.failed + 1
let ok t = t.ok
let failed t = t.failed
let total t = t.ok + t.failed

(* Nearest-rank quantile in ns; [censor] is returned when the rank falls
   among the failures, [nan] when there is no sample at all. *)
let quantile t ~censor q =
  let n = total t in
  if n = 0 then nan
  else
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
    if rank > t.ok then censor
    else begin
      let below = t.ok - t.n_over in
      if rank <= below then begin
        let acc = ref 0 and i = ref 0 in
        while !acc + t.counts.(!i) < rank do
          acc := !acc + t.counts.(!i);
          incr i
        done;
        float_of_int !i
      end
      else begin
        let o = Array.sub t.over 0 t.n_over in
        Array.sort compare o;
        float_of_int o.(rank - below - 1)
      end
    end

(* Samples strictly above quantile [q]: the guide's "at least ten samples
   beyond it" test for reporting a percentile. *)
let beyond t q =
  let n = total t in
  n - max 1 (int_of_float (Float.ceil (q *. float_of_int n)))

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let now_ns () = Int64.to_int (Onll_machine.Native.monotonic_ns ())
