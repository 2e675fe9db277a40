// Spec: compile a declarative workload spec and sweep the Figure 8
// designs over it exactly like a catalog workload. The spec ID is
// content-addressed: equal documents give equal IDs, and any edit
// gives a new one, so no result cache ever serves a stale cell.
package main

import (
	_ "embed"
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"shift"
)

//go:embed burst.json
var doc []byte // the spec document, embedded so the example runs from any directory

func main() {
	if err := run(os.Stdout, shift.QuickOptions()); err != nil {
		log.Fatal(err)
	}
}

// run compiles doc and prints its ID and its Figure 8 at o's scale
// (o.Workloads is replaced by the spec) to w.
func run(w io.Writer, o shift.Options) error {
	// Compile and register the spec document. The returned ID embeds a
	// hash of the normalized content: equal documents give equal IDs.
	id, err := shift.LoadSpec(doc)
	if err != nil {
		var fe *shift.FieldError
		if errors.As(err, &fe) {
			return fmt.Errorf("spec rejected at field %q: %s", fe.Field, fe.Msg)
		}
		return err
	}
	fmt.Fprintf(w, "compiled %s\n", id)

	// Sweep designs over the spec exactly like a catalog workload: the
	// Figure 8 driver with the workload axis set to the spec ID.
	o.Workloads = []string{id}
	fig, err := shift.RunFigure8(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, fig)
	return nil
}
