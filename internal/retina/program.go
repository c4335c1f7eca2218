package retina

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/graph"
	"repro/internal/runtime"
)

// Version selects the coordination program.
type Version int

// Program versions from §5.
const (
	// V1 is the first parallelization (§5.1): post_up performs the
	// temporal integration sequentially on odd slabs, limiting speedup to
	// about two.
	V1 Version = iota
	// V2 is the load-balanced version (§5.2): post_up is decomposed into a
	// four-way fork-join (update_split / update_bite / done_up).
	V2
)

// String names the version.
func (v Version) String() string {
	if v == V2 {
		return "balanced"
	}
	return "unbalanced"
}

// programV1 is the coordination framework of §5.1, verbatim up to the
// preprocessor constants supplied by Source.
const programV1 = `
main()
  iterate
  {
    timestep=0,incr(timestep)
    scene=set_up(),
      let
        <a,b,c,d>=target_split(scene)
        ao=target_bite(a)
        bo=target_bite(b)
        co=target_bite(c)
        do=target_bite(d)
      in do_convol(ao,bo,co,do)
  }
  while is_not_equal(timestep, NUM_ITER),
  result scene

do_convol(c1,c2,c3,c4)
  iterate
  {
    slab=START_SLAB,incr(slab)
    convolve_data=pre_update(c1,c2,c3,c4),
      let
        <a,b,c,d>=convol_split(convolve_data)
        ao=convol_bite(a,slab)
        bo=convol_bite(b,slab)
        co=convol_bite(c,slab)
        do=convol_bite(d,slab)
      in post_up(slab,ao,bo,co,do)
  } while is_not_equal(slab,FINAL_SLAB),
    result convolve_data
`

// programV2 replaces do_convol with the balanced version of §5.2.
const programV2 = `
main()
  iterate
  {
    timestep=0,incr(timestep)
    scene=set_up(),
      let
        <a,b,c,d>=target_split(scene)
        ao=target_bite(a)
        bo=target_bite(b)
        co=target_bite(c)
        do=target_bite(d)
      in do_convol(ao,bo,co,do)
  }
  while is_not_equal(timestep, NUM_ITER),
  result scene

do_convol(c1,c2,c3,c4)
  iterate
  {
    slab=START_SLAB,incr(slab)
    convolve_data=pre_update(c1,c2,c3,c4),
      let
        <a,b,c,d>=convol_split(convolve_data)
        ao=convol_bite(a,slab)
        bo=convol_bite(b,slab)
        co=convol_bite(c,slab)
        do=convol_bite(d,slab)
      in let
          <u1,u2,u3,u4> = update_split(ao,bo,co,do)
          au=update_bite(u1,slab)
          bu=update_bite(u2,slab)
          cu=update_bite(u3,slab)
          du=update_bite(u4,slab)
         in done_up(slab,au,bu,cu,du)
  } while is_not_equal(slab,FINAL_SLAB),
    result convolve_data
`

// Source returns the full Delirium program text for cfg, preprocessor
// constants included.
func Source(cfg Config, v Version) string {
	body := programV1
	if v == V2 {
		body = programV2
	}
	return fmt.Sprintf("define NUM_ITER %d\ndefine START_SLAB 0\ndefine FINAL_SLAB %d\n%s",
		cfg.Timesteps, cfg.Slabs, body)
}

// CompileProgram compiles the retina coordination program against the
// operators for cfg.
func CompileProgram(cfg Config, v Version) (*graph.Program, error) {
	reg, err := Operators(cfg)
	if err != nil {
		return nil, err
	}
	res, err := compile.Compile(fmt.Sprintf("retina-%s.dlr", v), Source(cfg, v), compile.Options{Registry: reg})
	if err != nil {
		return nil, err
	}
	return res.Program, nil
}

// Run compiles and executes the retina simulation under ecfg, returning the
// final scene and the engine (for stats and node timings).
func Run(cfg Config, v Version, ecfg runtime.Config) (*Scene, *runtime.Engine, error) {
	prog, err := CompileProgram(cfg, v)
	if err != nil {
		return nil, nil, err
	}
	eng := runtime.New(prog, ecfg)
	out, err := eng.Run()
	if err != nil {
		return nil, nil, err
	}
	scene, err := ExtractScene(out)
	if err != nil {
		return nil, nil, err
	}
	return scene, eng, nil
}
