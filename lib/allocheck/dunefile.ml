(* A minimal reader for the `dune` files rule L1 needs: enough
   s-expression structure to pull (library|executable|executables|test)
   stanzas with their (name ...) and (libraries ...) fields.  Hand-rolled
   on purpose — no sexplib dependency, same ethos as lib/trace/json.ml. *)

type sexp = Atom of string * int (* text, line *) | List of sexp list * int

type kind = Library | Executable | Test

type stanza = {
  kind : kind;
  name : string;
  libraries : string list;
  line : int; (* of the stanza opener, for findings *)
}

exception Parse_error of string * int

let tokenize text =
  let n = String.length text in
  let toks = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  while !i < n do
    (match text.[!i] with
    | '\n' ->
        incr line;
        incr i
    | ' ' | '\t' | '\r' -> incr i
    | ';' ->
        (* comment to end of line *)
        while !i < n && text.[!i] <> '\n' do
          incr i
        done
    | '(' ->
        toks := `Open !line :: !toks;
        incr i
    | ')' ->
        toks := `Close !line :: !toks;
        incr i
    | '"' ->
        (* quoted atom; dune files here only use backslash escapes *)
        let start_line = !line in
        let buf = Buffer.create 16 in
        incr i;
        while !i < n && text.[!i] <> '"' do
          if text.[!i] = '\n' then incr line;
          if text.[!i] = '\\' && !i + 1 < n then begin
            Buffer.add_char buf text.[!i + 1];
            i := !i + 2
          end
          else begin
            Buffer.add_char buf text.[!i];
            incr i
          end
        done;
        if !i >= n then raise (Parse_error ("unterminated string", start_line));
        incr i;
        toks := `Atom (Buffer.contents buf, start_line) :: !toks
    | _ ->
        let start = !i and start_line = !line in
        while
          !i < n
          && not
               (match text.[!i] with
               | ' ' | '\t' | '\r' | '\n' | '(' | ')' | ';' -> true
               | _ -> false)
        do
          incr i
        done;
        toks := `Atom (String.sub text start (!i - start), start_line) :: !toks);
  done;
  List.rev !toks

let parse text : sexp list =
  let toks = ref (tokenize text) in
  let rec parse_one () =
    match !toks with
    | [] -> None
    | `Atom (s, l) :: rest ->
        toks := rest;
        Some (Atom (s, l))
    | `Open l :: rest ->
        toks := rest;
        let items = ref [] in
        let rec loop () =
          match !toks with
          | `Close _ :: rest ->
              toks := rest
          | [] -> raise (Parse_error ("unbalanced parenthesis", l))
          | _ ->
              (match parse_one () with
              | Some s -> items := s :: !items
              | None -> raise (Parse_error ("unbalanced parenthesis", l)));
              loop ()
        in
        loop ();
        Some (List (List.rev !items, l))
    | `Close l :: _ -> raise (Parse_error ("stray closing parenthesis", l))
  in
  let out = ref [] in
  let rec all () =
    match parse_one () with
    | Some s ->
        out := s :: !out;
        all ()
    | None -> ()
  in
  all ();
  List.rev !out

let atoms = List.filter_map (function Atom (a, _) -> Some a | List _ -> None)

let field name items =
  List.find_map
    (function
      | List (Atom (n, _) :: rest, _) when n = name -> Some rest
      | _ -> None)
    items

(* Extract stanzas from a parsed dune file.  (executables) with several
   (names ...) yields one stanza per name. *)
let stanzas_of text : stanza list =
  let tops = parse text in
  List.concat_map
    (function
      | List (Atom (kw, line) :: fields, _) ->
          let kind =
            match kw with
            | "library" -> Some Library
            | "executable" -> Some Executable
            | "executables" -> Some Executable
            | "test" | "tests" -> Some Test
            | _ -> None
          in
          (match kind with
          | None -> []
          | Some kind ->
              let libraries =
                match field "libraries" fields with
                | Some rest -> atoms rest
                | None -> []
              in
              let names =
                match (field "name" fields, field "names" fields) with
                | Some rest, _ -> atoms rest
                | None, Some rest -> atoms rest
                | None, None -> []
              in
              List.map
                (fun name -> { kind; name; libraries; line })
                (match names with [] -> [ "?" ] | ns -> ns))
      | _ -> [])
    tops
