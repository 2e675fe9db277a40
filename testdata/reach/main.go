package main

import (
	"fmt"

	"reachfix/internal/lib"
)

func main() {
	fmt.Println(lib.Used(), lib.Square{Side: 2})
}
