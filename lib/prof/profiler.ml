(** Profiling driver: runs a program's profile-mode bytecode on the vm
    ({!Vmcode.profile}, {!Vm.profile}) and turns the dense counters into
    a {!Profile.t}.  The vm keeps the dynamic call-site stack, so
    call-site mod/ref LOC sets accumulate the effects of entire call
    subtrees (the paper's per-call-site side-effect LOC sets, §3.2.1). *)

open Spec_ir

(* The profile is built once, after the run.  A site's LOC table is
   filled in the order the run first touched each LOC, the order the
   tables were filled when they were written access by access. *)
let of_recorder (vp : Vmcode.program) (r : Vm.recorder) : Profile.t =
  let lay = r.Vm.lay in
  let prof = Profile.create () in
  let fname fix = vp.Vmcode.vfuncs.(fix).Vmcode.vname in
  Array.iteri
    (fun fix c ->
      if c > 0 then Hashtbl.replace prof.Profile.edge.Profile.entries (fname fix) c)
    r.Vm.entries;
  Array.iteri
    (fun e c ->
      if c > 0 then begin
        let fix, src, dst = lay.Vmcode.edges.(e) in
        Hashtbl.replace prof.Profile.edge.Profile.edges (fname fix, src, dst) c
      end)
    r.Vm.edge_counts;
  let alias = prof.Profile.alias in
  Array.iteri
    (fun slot c ->
      if c > 0 then begin
        let site = lay.Vmcode.ref_sites.(slot) in
        Hashtbl.replace alias.Profile.ref_counts site c;
        let n = r.Vm.site_n.(slot) in
        if n > 0 then begin
          let counts = Hashtbl.create 4 in
          for i = 0 to n - 1 do
            Hashtbl.replace counts
              lay.Vmcode.locs.(r.Vm.site_locs.(slot).(i))
              r.Vm.site_hits.(slot).(i)
          done;
          Hashtbl.replace alias.Profile.ref_locs site counts
        end
      end)
    r.Vm.ref_counts;
  let nl = Array.length lay.Vmcode.locs in
  Array.iteri
    (fun k site ->
      let add tbl bits =
        let set = ref Loc.Set.empty in
        for l = 0 to nl - 1 do
          if Bytes.get bits ((k * nl) + l) <> '\000' then
            set := Loc.Set.add lay.Vmcode.locs.(l) !set
        done;
        if not (Loc.Set.is_empty !set) then Hashtbl.replace tbl site !set
      in
      add alias.Profile.call_mod r.Vm.call_mod;
      add alias.Profile.call_ref r.Vm.call_ref)
    lay.Vmcode.call_sites;
  prof

(** Run [prog] and collect edge + alias profiles.  The profile describes
    the run with whatever inputs the program's [main] sets up; workloads
    profile with their train input and measure with their ref input by
    switching an input-selection global. *)
let profile ?(fuel = 200_000_000) ?(heap_bytes = 24 * 1024 * 1024)
    (prog : Sir.prog) : Profile.t * Interp.result =
  let vp, lay = Vmcode.profile prog in
  let result, r = Vm.profile ~fuel ~heap_bytes vp lay in
  let prof = of_recorder vp r in
  Profile.annotate_block_freqs prof prog;
  prof, result
