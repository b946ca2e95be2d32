(* A natural-language command palette for a text editor — the IoT/end-user
   scenario from the paper's introduction: the user types what they want,
   the synthesizer produces the editing-DSL codelet an editor would execute.

     dune exec examples/text_editor_assistant.exe
     dune exec examples/text_editor_assistant.exe -- "delete all numbers"

   Demonstrates using a shipped benchmark domain (TextEditing, 52 APIs) as
   a library: Domain.configure applies the domain's defaults (END()
   position, SINGLESCOPE() iteration) and scope handling. *)

open Dggt_core
open Dggt_domains

let demo_commands =
  [
    "Append \":\" in every line containing numerals.";
    "delete the first word of each line";
    "replace \",\" with \";\"";
    "count the words in every sentence";
    "select every line containing \"TODO\"";
    "if a sentence starts with \"-\", add \":\" after 14 characters";
  ]

let () =
  let dom = Text_editing.domain in
  let ses = Domain.configure dom (Engine.default Engine.Dggt_alg) in
  let commands =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as args) -> [ String.concat " " args ]
    | _ -> demo_commands
  in
  Format.printf "editor command palette (%s: %d APIs)@.@." dom.Domain.name
    (Domain.api_count dom);
  List.iter
    (fun command ->
      let o =
        Engine.respond ses
          { Engine.input = Engine.Text command; mode = Engine.Plain }
      in
      Format.printf "> %s@." command;
      (match (o.Engine.code, o.Engine.failure) with
      | Some code, _ ->
          Format.printf "  %s@.  (%d APIs, %.1f ms)@.@." code
            (Option.value o.Engine.cgt_size ~default:0)
            (o.Engine.time_s *. 1000.)
      | None, Some why -> Format.printf "  could not synthesize: %s@.@." why
      | None, None -> Format.printf "  could not synthesize@.@."))
    commands
