(* Load connections for the single generator thread.  Server.Client is
   synchronous (send, then block in recv), which cannot keep an
   open-loop schedule; these connections frame requests with the same
   Codec and Protocol, batch them per connection, and read whatever
   replies have arrived on any connection through one select. *)

module P = Core.Server_protocol
module Codec = Core.Server_codec

type t = {
  fd : Unix.file_descr;
  dec : Codec.decoder;
  buf : Bytes.t;
  out : Buffer.t;
}

let queue c req = Buffer.add_string c.out (Codec.encode (P.request_to_sexp req))

let flush c =
  let s = Buffer.contents c.out in
  Buffer.clear c.out;
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring c.fd s off (len - off) with
      | exception Unix.Unix_error (EINTR, _, _) -> go off
      | n -> go (off + n)
  in
  go 0

(* Decode every complete reply already buffered. *)
let rec drain c f =
  match Codec.next c.dec with
  | Error m -> failwith ("perfbench: bad frame from the daemon: " ^ m)
  | Ok None -> ()
  | Ok (Some sexp) -> (
      match P.response_of_sexp sexp with
      | Error m -> failwith ("perfbench: bad reply from the daemon: " ^ m)
      | Ok r ->
          f r;
          drain c f)

let read c f =
  match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | 0 -> failwith "perfbench: the daemon closed a load connection"
  | n ->
      Codec.feed c.dec c.buf n;
      drain c f

(* Hand every reply that has arrived on any connection to [f] with the
   connection's index; never blocks. *)
let poll conns f =
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  match Unix.select fds [] [] 0. with
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | ready, _, _ ->
      Array.iteri (fun i c -> if List.memq c.fd ready then read c (f i)) conns

(* Raises [Unix.Unix_error] while the daemon has not bound its socket. *)
let connect sock =
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_UNIX sock)
   with e ->
     Unix.close fd;
     raise e);
  let c =
    { fd; dec = Codec.decoder (); buf = Bytes.create 65536; out = Buffer.create 4096 }
  in
  queue c (P.Hello { version = P.version });
  flush c;
  let welcome = ref false in
  while not !welcome do
    read c (function
      | P.Welcome _ -> welcome := true
      | _ -> failwith "perfbench: hello refused")
  done;
  c

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()
