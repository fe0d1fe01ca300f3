(* A client connection speaking `onll serve`'s frames through the
   library's public codec ({!Onll_serve.Protocol.write_frame}, {!Inbuf}). *)

module P = Onll_serve.Protocol

type t = { fd : Unix.file_descr; inb : P.Inbuf.t; scratch : bytes; out : Buffer.t }

exception Closed

let connect path =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; inb = P.Inbuf.create (); scratch = Bytes.create 65536; out = Buffer.create 256 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t req =
  Buffer.clear t.out;
  P.write_frame t.out P.req_codec req;
  let s = Buffer.to_bytes t.out in
  let n = Bytes.length s in
  let rec go off =
    if off < n then
      match Unix.write t.fd s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> raise Closed
  in
  go 0

(* Read what the socket has (it was reported readable) into the buffer.
   @raise Closed on end of stream or reset. *)
let fill t =
  match Unix.read t.fd t.scratch 0 (Bytes.length t.scratch) with
  | 0 -> raise Closed
  | n -> P.Inbuf.add t.inb t.scratch n
  | exception Unix.Unix_error (ECONNRESET, _, _) -> raise Closed

let pop t = P.Inbuf.pop t.inb P.resp_codec

(* Block until one response arrives; a server silent for 10 s is lost. *)
let recv t =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    match pop t with
    | Some r -> r
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0. then raise Closed;
        (match Unix.select [ t.fd ] [] [] left with
        | [], _, _ -> ()
        | _ -> fill t
        | exception Unix.Unix_error (EINTR, _, _) -> ());
        go ()
  in
  go ()

let call t req =
  send t req;
  recv t

let token = "onll"

let hello t ~client =
  match call t (P.Hello { client; token; tier = P.T_exactly_once }) with
  | P.Attached { next_seq; _ } -> next_seq
  | _ -> failwith "hello: not attached"

let incr_op = Onll_util.Codec.encode Onll_specs.Counter.update_codec Onll_specs.Counter.Increment
let get_op = ""
