(* A growable float array: sample buffers that stay flat (no list
   cells) while the generator runs. *)

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 4096 0.; n = 0 }

let add b x =
  if b.n = Array.length b.a then begin
    let bigger = Array.make (2 * b.n) 0. in
    Array.blit b.a 0 bigger 0 b.n;
    b.a <- bigger
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let contents b = Array.sub b.a 0 b.n
