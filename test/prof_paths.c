int tab[4];
int* objs[2];
int total;

/* Reference paths that the alias profile must record exactly and that
   the ten kernels never take:
   - address-taken locals and formals, reached by direct frame
     references;
   - a call site that recursion re-opens while it is open;
   - one indirect site that alternates between two heap objects, a
     global array and a local array, and returns to a heap object right
     after the local array;
   - a pointer that steps from one allocation into the next, and past
     the top of the heap.
   test/profile_digests.txt pins this program's profile. */

/* [a] and [t] have their address taken, so both live in the frame */
int bump(int a, int* out) {
  int t;
  int* pa;
  int* pt;
  pa = &a;
  pt = &t;
  *pt = *pa + 1;
  t = t + a;
  a = a + t;
  *out = t;
  return a;
}

/* calls itself from one call site; [*p] is a cell of main's frame */
int nest(int n, int* p) {
  int here;
  here = n;
  if (n <= 0) return *p + bump(here, &here);
  *p = *p + here;
  total = total + 1;
  return nest(n - 1, p) + here;
}

/* the store and the load through q see both heap objects, the global
   array and the local array, and the first heap object again right
   after the local array */
int alternate(int rounds) {
  int i;
  int k;
  int s;
  int mine[4];
  int* q;
  s = 0;
  i = 0;
  while (i < rounds) {
    k = i % 6;
    if (k == 0 || k == 2) q = objs[0];
    else if (k == 1) q = mine;
    else if (k == 4) q = objs[1];
    else q = tab;
    q[(i + 1) % 4] = s + i;
    s = s + q[i % 4];
    i = i + 1;
  }
  return s;
}

int sum_cells(int* p, int n) {
  int s;
  s = 0;
  while (n > 0) {
    s = s + *p;
    p = p + 1;
    n = n - 1;
  }
  return s;
}

int stride() {
  int* a;
  int* b;
  int* c;
  int k;
  int s;
  a = (int*)malloc(3 * 8);
  b = (int*)malloc(5 * 8);
  k = 0;
  while (k < 3) { a[k] = k + 1; k = k + 1; }
  k = 0;
  while (k < 5) { b[k] = 10 * k; k = k + 1; }
  s = sum_cells(a, 8);          /* from a into b */
  s = s + sum_cells(b + 4, 2);  /* b's last cell, then past the heap top */
  c = (int*)malloc(2 * 8);      /* c starts where that walk ended */
  c[0] = s;
  c[1] = 1;
  s = s + sum_cells(b + 3, 4);  /* from b into c */
  return s;
}

int main() {
  int i;
  int s;
  int r;
  int* o;
  objs[0] = (int*)malloc(4 * 8);
  objs[1] = (int*)malloc(4 * 8);
  i = 0;
  while (i < 4) {
    tab[i] = i;
    o = objs[0];
    o[i] = 2 * i;
    o = objs[1];
    o[i] = 3 * i;
    i = i + 1;
  }
  s = 0;
  r = 0;
  i = 0;
  while (i < 3) {
    s = s + nest(4 + i, &r);
    s = s + alternate(10 + i);
    i = i + 1;
  }
  s = s + stride();
  s = s + bump(s, &r);
  print_int(s);
  print_int(r);
  print_int(total);
  return 0;
}
