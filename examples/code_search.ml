(* Natural-language code search over C++ ASTs — the compiler-tooling
   scenario the paper evaluates (Clang's LibASTMatchers, ~500 APIs that
   nobody memorizes).

     dune exec examples/code_search.exe
     dune exec examples/code_search.exe -- "find all virtual methods"

   The produced matcher expressions are exactly what clang-query accepts. *)

open Dggt_core
open Dggt_domains

let demo_queries =
  [
    "find cxx constructor expressions which declare a cxx method named \"PI\"";
    "search for call expressions whose argument is a float literal";
    "list all binary operators named \"*\"";
    "find functions returning a pointer type";
    "find all calls invoking a variadic function";
    "find while loops whose body is a compound statement";
  ]

let () =
  let dom = Astmatcher.domain in
  let ses = Domain.configure dom (Engine.default Engine.Dggt_alg) in
  let queries =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> [ String.concat " " args ]
    | _ -> demo_queries
  in
  Format.printf "clang-query assistant (%s: %d matchers)@.@." dom.Domain.name
    (Domain.api_count dom);
  List.iter
    (fun query ->
      let o =
        Engine.respond ses
          { Engine.input = Engine.Text query; mode = Engine.Plain }
      in
      Format.printf "> %s@." query;
      match o.Engine.code with
      | Some code -> Format.printf "  clang-query> match %s@.  (%.1f ms)@.@." code (o.Engine.time_s *. 1000.)
      | None ->
          Format.printf "  could not synthesize: %s@.@."
            (Option.value o.Engine.failure ~default:"unknown"))
    queries
