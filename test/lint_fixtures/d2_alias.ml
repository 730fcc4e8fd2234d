(* Fixture: rule D2 through a module alias and a local open — the
   analyzer names identifiers by resolved path, so both are
   Hashtbl's. *)

module H = Hashtbl

let keys tbl = H.fold (fun k _ acc -> k :: acc) tbl []

let dump f tbl = Hashtbl.(iter f tbl)
