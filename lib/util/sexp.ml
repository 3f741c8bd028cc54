type t = Atom of string | List of t list

(* The parser reads [src] from [pos] up to [limit] in place: it keeps
   one cursor, compares bytes directly and allocates only the tree it
   returns, so a payload can be parsed straight out of a decoder's
   buffer.  Error offsets count from [base], the start of the input. *)
type cursor = { src : Bytes.t; base : int; limit : int; mutable pos : int }

exception Bad of string

let error c msg = Printf.sprintf "%s at offset %d" msg (c.pos - c.base)
let fail c msg = raise (Bad (error c msg))

let rec skip_blank c =
  if c.pos < c.limit then
    match Bytes.unsafe_get c.src c.pos with
    | ' ' | '\t' | '\n' | '\r' ->
        c.pos <- c.pos + 1;
        skip_blank c
    | ';' ->
        (* Comment to end of line. *)
        while c.pos < c.limit && Bytes.unsafe_get c.src c.pos <> '\n' do
          c.pos <- c.pos + 1
        done;
        skip_blank c
    | _ -> ()

let rec parse_one c =
  skip_blank c;
  if c.pos >= c.limit then fail c "unexpected end of input"
  else
    match Bytes.unsafe_get c.src c.pos with
    | '(' ->
        c.pos <- c.pos + 1;
        List (items c)
    | ')' -> fail c "unexpected ')'"
    | _ ->
        let start = c.pos in
        let stop = ref start in
        while
          !stop < c.limit
          &&
          match Bytes.unsafe_get c.src !stop with
          | ' ' | '\t' | '\n' | '\r' | '(' | ')' | ';' -> false
          | _ -> true
        do
          incr stop
        done;
        c.pos <- !stop;
        Atom (Bytes.sub_string c.src start (!stop - start))

(* One cons per item, built in order. *)
and[@tail_mod_cons] items c =
  skip_blank c;
  if c.pos >= c.limit then raise (Bad (error c "unclosed parenthesis"))
  else if Bytes.unsafe_get c.src c.pos = ')' then begin
    c.pos <- c.pos + 1;
    []
  end
  else
    let item = parse_one c in
    item :: items c

let parse_sub src ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length src - len then invalid_arg "Sexp.parse_sub";
  let c = { src; base = pos; limit = pos + len; pos } in
  match parse_one c with
  | exception Bad m -> Error m
  | v ->
      skip_blank c;
      if c.pos = c.limit then Ok v else Error (error c "trailing content after expression")

let parse input = parse_sub (Bytes.unsafe_of_string input) ~pos:0 ~len:(String.length input)

let parse_many input =
  let c =
    { src = Bytes.unsafe_of_string input; base = 0; limit = String.length input; pos = 0 }
  in
  let rec go acc =
    skip_blank c;
    if c.pos = c.limit then Ok (List.rev acc)
    else match parse_one c with exception Bad m -> Error m | v -> go (v :: acc)
  in
  go []

(* Rendering: atoms verbatim, list items separated by one space. *)
let rec rendered_length = function
  | Atom a -> String.length a
  | List [] -> 2
  | List (x :: rest) -> items_length (1 + rendered_length x) rest + 1

and items_length acc = function
  | [] -> acc
  | x :: rest -> items_length (acc + 1 + rendered_length x) rest

let rec write t b off =
  match t with
  | Atom a ->
      Bytes.blit_string a 0 b off (String.length a);
      off + String.length a
  | List [] ->
      Bytes.set b off '(';
      Bytes.set b (off + 1) ')';
      off + 2
  | List (x :: rest) ->
      Bytes.set b off '(';
      write_items rest b (write x b (off + 1))

and write_items items b off =
  match items with
  | [] ->
      Bytes.set b off ')';
      off + 1
  | x :: rest ->
      Bytes.set b off ' ';
      write_items rest b (write x b (off + 1))

let to_string t =
  let b = Bytes.create (rendered_length t) in
  ignore (write t b 0 : int);
  Bytes.unsafe_to_string b

let atom = function Atom a -> Some a | List _ -> None

let rec assoc key = function
  | [] -> None
  | List (Atom k :: args) :: _ when k = key -> Some args
  | (Atom _ | List _) :: rest -> assoc key rest

let float_atom = function Atom a -> float_of_string_opt a | List _ -> None
let int_atom = function Atom a -> int_of_string_opt a | List _ -> None
