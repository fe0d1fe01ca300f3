(* What one workload run hands back to the report: the output verdict,
   the operation counts, and the named metrics of both kinds. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  kinds : (string * int) list;  (* failures by kind, including zeros *)
  checks : (string * bool) list;  (* each output check and its verdict *)
  e2e : metric list;
  layers : metric list;
  notes : string list;  (* human-readable lines printed before the result *)
}

let m name value unit_ = { name; value; unit_ }

(* Failure kinds the report always lists, so a known defect shows as a
   count even when it is zero on a workload. *)
let all_kinds =
  [ "log_full"; "assert_failure"; "overloaded"; "timeout"; "conn_lost"; "wrong_answer"; "other" ]

type counter = (string, int) Hashtbl.t

let counter () : counter = Hashtbl.create 8
let bump (c : counter) k = Hashtbl.replace c k (1 + Option.value ~default:0 (Hashtbl.find_opt c k))
let get (c : counter) k = Option.value ~default:0 (Hashtbl.find_opt c k)

let kinds_of (c : counter) =
  let extra = Hashtbl.fold (fun k _ acc -> if List.mem k all_kinds then acc else k :: acc) c [] in
  List.map (fun k -> (k, get c k)) (all_kinds @ List.sort compare extra)

let kind_of_exn = function
  | Onll_core.Onll.Log_full _ -> "log_full"
  | Assert_failure _ -> "assert_failure"
  | _ -> "other"

(* What the self-test plants: one wrong expected value (a model answer
   on kv-embed, the acked count on serve) or one wrong fence count for a
   kv-embed Put. *)
type plant = Clean | Wrong_value | Wrong_fences

(* A memory figure of a process from /proc/<pid>/status, in MiB ("VmHWM"
   is the peak resident set, "VmRSS" the current one); 0 where
   unavailable. *)
let status_mb pid field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let prefix = field ^ ":" in
  let n = String.length prefix in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let r = ref 0. in
      (try
         while true do
           let l = input_line ic in
           if String.length l > n && String.sub l 0 n = prefix then
             Scanf.sscanf (String.sub l n (String.length l - n)) " %d" (fun kb ->
                 r := float_of_int kb /. 1024.)
         done
       with End_of_file -> ());
      close_in ic;
      !r

(* Restart this process's peak resident set from its current one (Linux
   clear_refs "5"), and return the current one in MiB. Where the reset is
   refused, the peak keeps counting from process start. *)
let reset_peak_rss () =
  (try
     let oc = open_out "/proc/self/clear_refs" in
     Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc "5")
   with Sys_error _ -> ());
  status_mb "self" "VmRSS"
