type t = {
  mutable dep_edges : int;
  mutable orig_paths : int;
  mutable paths_after_reloc : int;
  mutable orphan_count : int;
  mutable reloc_graphs : int;
  mutable combos_total : int;
  mutable combos_after_gprune : int;
  mutable combos_after_sprune : int;
  mutable combos_merged : int;
  mutable hisyn_combos_enumerated : int;
  mutable hisyn_combos_possible : int;
  mutable dgg_nodes : int;
  mutable dgg_edges : int;
  mutable dgg_improvements : int;
}

let create () =
  {
    dep_edges = 0;
    orig_paths = 0;
    paths_after_reloc = 0;
    orphan_count = 0;
    reloc_graphs = 0;
    combos_total = 0;
    combos_after_gprune = 0;
    combos_after_sprune = 0;
    combos_merged = 0;
    hisyn_combos_enumerated = 0;
    hisyn_combos_possible = 0;
    dgg_nodes = 0;
    dgg_edges = 0;
    dgg_improvements = 0;
  }

let copy s =
  {
    dep_edges = s.dep_edges;
    orig_paths = s.orig_paths;
    paths_after_reloc = s.paths_after_reloc;
    orphan_count = s.orphan_count;
    reloc_graphs = s.reloc_graphs;
    combos_total = s.combos_total;
    combos_after_gprune = s.combos_after_gprune;
    combos_after_sprune = s.combos_after_sprune;
    combos_merged = s.combos_merged;
    hisyn_combos_enumerated = s.hisyn_combos_enumerated;
    hisyn_combos_possible = s.hisyn_combos_possible;
    dgg_nodes = s.dgg_nodes;
    dgg_edges = s.dgg_edges;
    dgg_improvements = s.dgg_improvements;
  }

(* Non-negative counters saturate at [max_int] instead of wrapping: a
   product of group sizes is already capped there
   ([Listutil.cartesian_count]). *)
let sum a b = if a > max_int - b then max_int else a + b

(* all fields are immediate ints, so structural equality is exactly
   field-by-field equality *)
let equal (a : t) (b : t) = a = b

(* [add] aggregates counters across the relocation-graph variants explored
   for ONE query (Engine.run_dggt forks the dependency graph per orphan
   placement). Two aggregation rules apply, field by field:

   - [max] for fields that describe the QUERY or its best parse — each
     variant re-measures the same quantity, so summing would double-count
     it (a query with 4 dep edges explored over 3 variants still has 4
     edges, not 12);
   - [+] for fields that count WORK PERFORMED — every variant's
     enumeration, pruning and merging effort really happened, so the
     paper's Table III work totals are the sum over variants.

   The mixture is deliberate; the unit test test_stats_add_semantics pins
   it. *)
let add a b =
  {
    (* query-shaped: max *)
    dep_edges = max a.dep_edges b.dep_edges;
    orig_paths = max a.orig_paths b.orig_paths;
    paths_after_reloc = max a.paths_after_reloc b.paths_after_reloc;
    orphan_count = max a.orphan_count b.orphan_count;
    hisyn_combos_possible = max a.hisyn_combos_possible b.hisyn_combos_possible;
    (* work-shaped: sum *)
    reloc_graphs = sum a.reloc_graphs b.reloc_graphs;
    combos_total = sum a.combos_total b.combos_total;
    combos_after_gprune = sum a.combos_after_gprune b.combos_after_gprune;
    combos_after_sprune = sum a.combos_after_sprune b.combos_after_sprune;
    combos_merged = sum a.combos_merged b.combos_merged;
    hisyn_combos_enumerated = sum a.hisyn_combos_enumerated b.hisyn_combos_enumerated;
    dgg_nodes = sum a.dgg_nodes b.dgg_nodes;
    dgg_edges = sum a.dgg_edges b.dgg_edges;
    dgg_improvements = sum a.dgg_improvements b.dgg_improvements;
  }

let gprune_removed t = t.combos_total - t.combos_after_gprune
let sprune_removed t = t.combos_after_gprune - t.combos_after_sprune

let pp fmt t =
  Format.fprintf fmt
    "edges=%d paths=%d->%d orphans=%d graphs=%d combos=%d -gp-> %d -sp-> %d merged=%d hisyn_enum=%d dgg=%d/%d improved=%d"
    t.dep_edges t.orig_paths t.paths_after_reloc t.orphan_count t.reloc_graphs
    t.combos_total t.combos_after_gprune t.combos_after_sprune t.combos_merged
    t.hisyn_combos_enumerated t.dgg_nodes t.dgg_edges t.dgg_improvements
