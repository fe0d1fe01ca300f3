(* In-memory spans for the traced run: (name, start, end, parent, request)
   recorded by the benchmark around each call it makes into a layer, kept
   in flat int arrays and written out once the run ends. A span's self
   time is its duration minus the durations of its children; the
   benchmark's child calls never overlap, so the difference is exact. *)

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable buf : int array;  (* per span: name, start, stop, parent, req *)
  mutable n : int;
}

let width = 5
let create () = { names = Hashtbl.create 32; name_of = [||]; buf = Array.make (width * 4096) 0; n = 0 }

let intern t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
      let i = Array.length t.name_of in
      Hashtbl.add t.names name i;
      t.name_of <- Array.append t.name_of [| name |];
      i

(* Open a span now; returns its id, to pass to [stop] and as a parent. *)
let start t ?(parent = -1) ~req name =
  if (t.n + 1) * width > Array.length t.buf then begin
    let b = Array.make (2 * Array.length t.buf) 0 in
    Array.blit t.buf 0 b 0 (t.n * width);
    t.buf <- b
  end;
  let id = t.n in
  let o = id * width in
  t.buf.(o) <- intern t name;
  t.buf.(o + 1) <- Lat.now_ns ();
  t.buf.(o + 2) <- -1;
  t.buf.(o + 3) <- parent;
  t.buf.(o + 4) <- req;
  t.n <- t.n + 1;
  id

let stop t id = t.buf.((id * width) + 2) <- Lat.now_ns ()

(* Record a span whose bounds the caller measured itself. *)
let add t ?(parent = -1) ~req name ~start:s ~stop:e =
  let id = start t ~parent ~req name in
  let o = id * width in
  t.buf.(o + 1) <- s;
  t.buf.(o + 2) <- e;
  id

let time t ?parent ~req name f =
  let id = start t ?parent ~req name in
  match f () with
  | v ->
      stop t id;
      v
  | exception e ->
      stop t id;
      raise e

let dur t i = t.buf.((i * width) + 2) - t.buf.((i * width) + 1)

(* Durations (ns) of every closed span named [name], and their self times. *)
let stats t name =
  match Hashtbl.find_opt t.names name with
  | None -> ([], [])
  | Some k ->
      let child = Array.make t.n 0 in
      for i = 0 to t.n - 1 do
        let p = t.buf.((i * width) + 3) in
        if p >= 0 && t.buf.((i * width) + 2) >= 0 then child.(p) <- child.(p) + dur t i
      done;
      let ds = ref [] and ss = ref [] in
      for i = t.n - 1 downto 0 do
        if t.buf.(i * width) = k && t.buf.((i * width) + 2) >= 0 then begin
          ds := float_of_int (dur t i) :: !ds;
          ss := float_of_int (dur t i - child.(i)) :: !ss
        end
      done;
      (!ds, !ss)

let median_us t name = Lat.median (fst (stats t name)) /. 1e3
let self_median_us t name = Lat.median (snd (stats t name)) /. 1e3

let write t path =
  let oc = open_out path in
  output_string oc "id\tname\tstart_ns\tstop_ns\tparent\treq\n";
  for i = 0 to t.n - 1 do
    let o = i * width in
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i t.name_of.(t.buf.(o))
      t.buf.(o + 1) t.buf.(o + 2) t.buf.(o + 3) t.buf.(o + 4)
  done;
  close_out oc
