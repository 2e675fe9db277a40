package main

import (
	"fmt"

	"reachfix/internal/lib"
)

func main() {
	c := lib.NewCounter()
	c.Hit()
	fmt.Println(lib.Used(), lib.Square{Side: 2}, c.Seen())
}
